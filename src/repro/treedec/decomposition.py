"""MDE-based tree decompositions (Section 3.2.1) and validity checking.

A full MDE run yields ``n`` bags ``B_i = {v_i} ∪ N_i``; the parent of bag
``B_i`` is ``B_{f(i)}`` where ``f(i)`` is the earliest-eliminated node of
``N_i``, and the bag of the last eliminated node is the root.  The
structure satisfies Definition 2, and additionally Lemma 2: ``v_i``
appears exactly in the bags of its descendants.
"""

from __future__ import annotations

import dataclasses
from collections import deque

from repro.exceptions import DecompositionError
from repro.graphs.graph import Graph
from repro.treedec.elimination import EliminationResult, minimum_degree_elimination


@dataclasses.dataclass
class TreeDecomposition:
    """A rooted MDE-based tree decomposition of a graph.

    Bags are indexed by elimination position: bag ``i`` belongs to the
    ``i``-th eliminated node.  ``parent[i]`` is the bag index of the
    parent (``None`` for roots — the decomposition is a forest when the
    graph is disconnected).

    Attributes
    ----------
    graph:
        The decomposed graph.
    bags:
        ``bags[i]`` is the sorted node tuple of bag ``i`` (includes the
        owning node ``order[i]``).
    order:
        ``order[i]`` is the node whose elimination produced bag ``i``.
    parent:
        Parent bag index per bag, ``None`` at roots.
    """

    graph: Graph
    bags: list[tuple[int, ...]]
    order: list[int]
    parent: list[int | None]

    def __post_init__(self) -> None:
        self.position = {v: i for i, v in enumerate(self.order)}
        self.children: list[list[int]] = [[] for _ in self.bags]
        for i, p in enumerate(self.parent):
            if p is not None:
                self.children[p].append(i)

    @property
    def width(self) -> int:
        """Treewidth of this decomposition: ``max |B_i| - 1``."""
        return max((len(bag) for bag in self.bags), default=1) - 1

    @property
    def roots(self) -> list[int]:
        """Bag indexes with no parent."""
        return [i for i, p in enumerate(self.parent) if p is None]

    def height(self) -> int:
        """Longest root-to-leaf path length measured in bags (>= 1)."""
        if not self.bags:
            return 0
        depth = [0] * len(self.bags)
        best = 0
        # Parents always have larger elimination positions, so a reverse
        # sweep sees every parent before its children.
        for i in range(len(self.bags) - 1, -1, -1):
            p = self.parent[i]
            depth[i] = 1 if p is None else depth[p] + 1
            best = max(best, depth[i])
        return best

    def bag_of(self, v: int) -> tuple[int, ...]:
        """The bag owned by node ``v``."""
        return self.bags[self.position[v]]

    def ancestors(self, i: int) -> list[int]:
        """Bag indexes on the path from ``i``'s parent up to its root."""
        chain: list[int] = []
        p = self.parent[i]
        while p is not None:
            chain.append(p)
            p = self.parent[p]
        return chain

    def validate(self) -> None:
        """Check Definition 2 and Lemma 2; raise on any violation."""
        self._check_node_coverage()
        self._check_edge_coverage()
        self._check_running_intersection()
        self._check_lemma2()

    def _check_node_coverage(self) -> None:
        covered: set[int] = set()
        for bag in self.bags:
            covered.update(bag)
        expected = set(self.graph.nodes())
        if covered != expected:
            missing = sorted(expected - covered)
            raise DecompositionError(f"bags do not cover nodes; missing {missing[:5]}")

    def _check_edge_coverage(self) -> None:
        bag_sets = [set(bag) for bag in self.bags]
        membership: dict[int, list[int]] = {}
        for i, bag in enumerate(self.bags):
            for v in bag:
                membership.setdefault(v, []).append(i)
        for u, v, _ in self.graph.edges():
            candidate_bags = membership.get(u, [])
            if not any(v in bag_sets[i] for i in candidate_bags):
                raise DecompositionError(f"edge ({u}, {v}) is covered by no bag")

    def _check_running_intersection(self) -> None:
        # Definition 2(3) is equivalent to: the bags containing any node v
        # induce a connected subtree.
        membership: dict[int, set[int]] = {}
        for i, bag in enumerate(self.bags):
            for v in bag:
                membership.setdefault(v, set()).add(i)
        for v, holders in membership.items():
            start = next(iter(holders))
            seen = {start}
            queue = deque([start])
            while queue:
                i = queue.popleft()
                neighbors = list(self.children[i])
                if self.parent[i] is not None:
                    neighbors.append(self.parent[i])
                for j in neighbors:
                    if j in holders and j not in seen:
                        seen.add(j)
                        queue.append(j)
            if seen != holders:
                raise DecompositionError(f"bags containing node {v} are not connected")

    def _check_lemma2(self) -> None:
        # v_i may only appear in bags of descendants of bag i, i.e. every
        # bag containing v_i must reach bag i by walking parents.
        for i, bag in enumerate(self.bags):
            for v in bag:
                owner = self.position[v]
                j = i
                while j is not None and j != owner:
                    j = self.parent[j]
                if j != owner:
                    raise DecompositionError(
                        f"node {v} occurs in bag {i} which is not a descendant of bag {owner}"
                    )


def mde_tree_decomposition(graph: Graph) -> TreeDecomposition:
    """Full MDE-based tree decomposition of ``graph`` (Section 3.2.1)."""
    result = minimum_degree_elimination(graph, bandwidth=None)
    return decomposition_from_elimination(result)


def decomposition_from_elimination(result: EliminationResult) -> TreeDecomposition:
    """Assemble the rooted decomposition from a *complete* MDE run."""
    if result.core_nodes:
        raise DecompositionError(
            "elimination stopped early (non-empty core); "
            "a full tree decomposition needs bandwidth=None"
        )
    order = result.eliminated_order()
    bags: list[tuple[int, ...]] = []
    parent: list[int | None] = []
    for pos, node in enumerate(order):
        neighbors, _ = result.bag(pos)
        bags.append(tuple(sorted([node, *neighbors])))
        if neighbors:
            parent.append(min(result.position[u] for u in neighbors))  # type: ignore[type-var]
        else:
            parent.append(None)
    return TreeDecomposition(graph=result.graph, bags=bags, order=order, parent=parent)


def mde_treewidth(graph: Graph) -> int:
    """MDE-based treewidth: the width of the full MDE decomposition.

    An upper bound on the true treewidth ``tw(G)`` (computing which is
    NP-complete); the quantity the paper's index-size bounds are stated
    in terms of.
    """
    return minimum_degree_elimination(graph, bandwidth=None).width
