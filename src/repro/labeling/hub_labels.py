"""Hub-label storage shared by PLL, PSL, and the CT core index.

A 2-hop labeling assigns every node a set of (hub, distance) pairs.  For
fast intersection the hubs are stored by *rank* (position in the vertex
order — rank 0 is the most important hub) in ascending-rank parallel
arrays, so a query is a single two-pointer merge.
"""

from __future__ import annotations

from repro.exceptions import QueryError
from repro.graphs.graph import INF, Graph, Weight


class HubLabeling:
    """Mutable 2-hop label store over nodes ``0 .. n-1``.

    Parameters
    ----------
    order:
        The vertex order: ``order[rank]`` is the node with that rank.
        Hubs are recorded by rank so labels sort in importance order.

    This is the mutable ``"dict"`` backend; a built labeling can be
    packed into the CSR ``"flat"`` backend
    (:class:`repro.storage.flat_labels.FlatLabelStore`), which answers
    the same read protocol from shared typed arrays.
    """

    #: Marker read by ``storage_backend`` properties up the stack.
    storage_backend = "dict"

    def __init__(self, order: list[int]) -> None:
        n = len(order)
        self._order = list(order)
        self._rank = [0] * n
        for rank, v in enumerate(order):
            self._rank[v] = rank
        self._hub_ranks: list[list[int]] = [[] for _ in range(n)]
        self._hub_dists: list[list[Weight]] = [[] for _ in range(n)]

    @classmethod
    def from_rank_lists(
        cls,
        order: list[int],
        hub_ranks: list[list[int]],
        hub_dists: list[list[Weight]],
    ) -> "HubLabeling":
        """Adopt finished per-node labels without replaying every entry.

        ``hub_ranks[v]`` / ``hub_dists[v]`` are ``v``'s label in
        ascending hub rank — the shape the vectorized builders finish
        in.  The lists are taken over, not copied.
        """
        labels = cls(order)
        if len(hub_ranks) != labels.n or len(hub_dists) != labels.n:
            raise QueryError(
                f"label lists cover {len(hub_ranks)}/{len(hub_dists)} nodes, "
                f"expected {labels.n}"
            )
        labels._hub_ranks = hub_ranks
        labels._hub_dists = hub_dists
        return labels

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self._order)

    def rank_of(self, v: int) -> int:
        """Rank of node ``v`` in the vertex order."""
        return self._rank[v]

    def node_of_rank(self, rank: int) -> int:
        """Node holding ``rank``."""
        return self._order[rank]

    def append_entry(self, v: int, hub_rank: int, dist: Weight) -> None:
        """Append ``(hub_rank, dist)`` to ``v``'s label.

        Entries must arrive in ascending rank order per node (which the
        PLL/PSL builders guarantee by processing hubs in rank order).
        """
        ranks = self._hub_ranks[v]
        if ranks and hub_rank <= ranks[-1]:
            raise QueryError(
                f"label of node {v} must grow in ascending rank order "
                f"({hub_rank} after {ranks[-1]})"
            )
        ranks.append(hub_rank)
        self._hub_dists[v].append(dist)

    def label_entries(self, v: int) -> list[tuple[int, Weight]]:
        """``(hub node, distance)`` pairs of ``v``'s label."""
        return [
            (self._order[rank], dist)
            for rank, dist in zip(self._hub_ranks[v], self._hub_dists[v])
        ]

    def label_rank_map(self, v: int) -> dict[int, Weight]:
        """``hub rank -> distance`` dict of ``v``'s label."""
        return dict(zip(self._hub_ranks[v], self._hub_dists[v]))

    def iter_rank_entries(self, v: int):
        """Iterate over ``(hub_rank, distance)`` pairs of ``v``'s label."""
        return zip(self._hub_ranks[v], self._hub_dists[v])

    def rank_arrays(self, v: int) -> tuple[list[int], list[Weight]]:
        """The rank-sorted parallel arrays backing ``v``'s label.

        Exposed for cross-store queries (e.g. directed labelings merge an
        out-label against an in-label); callers must not mutate them.
        """
        return self._hub_ranks[v], self._hub_dists[v]

    def label_size(self, v: int) -> int:
        """``|L_v|``."""
        return len(self._hub_ranks[v])

    def max_label_size(self) -> int:
        """``l = max_v |L_v|`` — the paper's query-time driver."""
        return max((len(ranks) for ranks in self._hub_ranks), default=0)

    def total_entries(self) -> int:
        """Total number of stored entries (index size in entries)."""
        return sum(len(ranks) for ranks in self._hub_ranks)

    def drop_label(self, v: int) -> None:
        """Discard ``v``'s label set (used by the PSL* reduction)."""
        self._hub_ranks[v] = []
        self._hub_dists[v] = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, s: int, t: int) -> Weight:
        """2-hop query: min over shared hubs of the two distances."""
        if s == t:
            return 0
        return self.query_merge(
            self._hub_ranks[s], self._hub_dists[s], self._hub_ranks[t], self._hub_dists[t]
        )

    @staticmethod
    def query_merge(
        ranks_a: list[int],
        dists_a: list[Weight],
        ranks_b: list[int],
        dists_b: list[Weight],
    ) -> Weight:
        """Two-pointer merge of two rank-sorted label arrays."""
        best: Weight = INF
        i = j = 0
        len_a, len_b = len(ranks_a), len(ranks_b)
        while i < len_a and j < len_b:
            ra, rb = ranks_a[i], ranks_b[j]
            if ra == rb:
                total = dists_a[i] + dists_b[j]
                if total < best:
                    best = total
                i += 1
                j += 1
            elif ra < rb:
                i += 1
            else:
                j += 1
        return best

    def query_with_map(self, label_map: dict[int, Weight], t: int) -> Weight:
        """Query between a materialized ``rank -> dist`` map and node ``t``.

        Used by the pruning step of the builders, where one side's label
        is reused across thousands of probes.
        """
        best: Weight = INF
        for rank, dist in zip(self._hub_ranks[t], self._hub_dists[t]):
            other = label_map.get(rank)
            if other is not None:
                total = other + dist
                if total < best:
                    best = total
        return best

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify_two_hop_cover(self, graph: Graph, truth: list[list[Weight]]) -> None:
        """Assert the labeling answers every pair exactly (Definition 1).

        ``truth`` is the all-pairs distance matrix of ``graph``.  Raises
        :class:`QueryError` on the first wrong pair.  Quadratic; for
        tests only.
        """
        for s in graph.nodes():
            for t in graph.nodes():
                expected = truth[s][t]
                got = self.query(s, t)
                if got != expected and not (got == INF and expected == INF):
                    raise QueryError(
                        f"2-hop cover violated at ({s}, {t}): labels give {got}, "
                        f"graph distance is {expected}"
                    )
