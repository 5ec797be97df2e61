"""Incremental construction and normalization of :class:`~repro.graphs.graph.Graph`.

Raw edge lists coming out of generators or files may contain self-loops,
duplicate edges, or both orientations of the same edge.  The builder folds
those into a simple undirected graph: self-loops are dropped and parallel
edges keep the smallest weight (the only weight that can ever matter for a
shortest-path index).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.exceptions import GraphError
from repro.graphs.graph import INF, Graph, Weight


class GraphBuilder:
    """Accumulates edges and produces a normalized :class:`Graph`.

    Example
    -------
    >>> builder = GraphBuilder(3)
    >>> builder.add_edge(0, 1)
    >>> builder.add_edge(1, 2, 5)
    >>> graph = builder.build()
    >>> graph.m
    2
    """

    def __init__(self, n: int) -> None:
        if n < 0:
            raise GraphError(f"node count must be non-negative, got {n}")
        self._n = n
        self._weights: dict[tuple[int, int], Weight] = {}
        self._dropped_self_loops = 0
        self._merged_parallel_edges = 0

    @property
    def n(self) -> int:
        """Number of nodes the built graph will have."""
        return self._n

    @property
    def edge_count(self) -> int:
        """Number of distinct edges accumulated so far."""
        return len(self._weights)

    @property
    def dropped_self_loops(self) -> int:
        """How many self-loops were silently discarded."""
        return self._dropped_self_loops

    @property
    def merged_parallel_edges(self) -> int:
        """How many duplicate edges were merged into an existing one."""
        return self._merged_parallel_edges

    def add_edge(self, u: int, v: int, weight: Weight = 1) -> None:
        """Add an undirected edge; normalizes loops and duplicates."""
        if not 0 <= u < self._n or not 0 <= v < self._n:
            raise GraphError(f"edge ({u}, {v}) has a node outside 0..{self._n - 1}")
        if weight != weight or weight == INF:
            raise GraphError(f"edge ({u}, {v}) has non-finite weight {weight}")
        if weight <= 0:
            raise GraphError(f"edge ({u}, {v}) has non-positive weight {weight}")
        if u == v:
            self._dropped_self_loops += 1
            return
        key = (u, v) if u < v else (v, u)
        existing = self._weights.get(key)
        if existing is None:
            self._weights[key] = weight
        else:
            self._merged_parallel_edges += 1
            if weight < existing:
                self._weights[key] = weight

    def add_edges(self, edges: Iterable[tuple[int, ...]]) -> None:
        """Add many ``(u, v)`` or ``(u, v, w)`` tuples."""
        for edge in edges:
            self.add_edge(*edge)

    def add_clique(self, nodes: Iterable[int], weight: Weight = 1) -> None:
        """Add all edges of the clique over ``nodes``."""
        members = sorted(set(nodes))
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                self.add_edge(u, v, weight)

    def add_path(self, nodes: Iterable[int], weight: Weight = 1) -> None:
        """Add a path visiting ``nodes`` in order."""
        previous = None
        for v in nodes:
            if previous is not None:
                self.add_edge(previous, v, weight)
            previous = v

    def build(self) -> Graph:
        """Produce the normalized :class:`Graph`."""
        adjacency: list[list[tuple[int, Weight]]] = [[] for _ in range(self._n)]
        unweighted = True
        for (u, v), w in self._weights.items():
            adjacency[u].append((v, w))
            adjacency[v].append((u, w))
            if w != 1:
                unweighted = False
        return Graph(self._n, adjacency, unweighted=unweighted)
