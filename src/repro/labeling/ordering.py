"""Vertex orders for landmark-based labelings.

PLL's label size depends heavily on the order in which nodes become
hubs.  The paper uses degree order for scale-free graphs (the standard
PLL choice) and mentions the tree-decomposition-based order behind its
theoretical bound (Theorem 4.4 of [2]); both are provided, plus a random
order as a worst-ish-case control.
"""

from __future__ import annotations

import random

from repro.exceptions import GraphError
from repro.graphs.graph import Graph


def degree_order(graph: Graph) -> list[int]:
    """Nodes by descending degree (ties by node id) — the PLL default."""
    return sorted(graph.nodes(), key=lambda v: (-graph.degree(v), v))


def degeneracy_based_order(graph: Graph) -> list[int]:
    """Reverse min-degree-peeling order.

    The node peeled *last* sits deepest in the core and is ranked most
    important.  This approximates the elimination-based order behind the
    paper's ``O(n log n · tw)`` PLL bound without paying for a full MDE
    run with fill-in.
    """
    from repro.graphs.statistics import degeneracy_ordering

    order, _ = degeneracy_ordering(graph)
    return list(reversed(order))


def elimination_based_order(graph: Graph) -> list[int]:
    """Reverse MDE elimination order (Theorem 4.4 of [2]).

    Nodes eliminated late (the high-treewidth core) become the most
    important hubs.  Costs a full MDE run with clique fill-in, so use on
    graphs whose width is moderate.
    """
    from repro.treedec.elimination import minimum_degree_elimination

    result = minimum_degree_elimination(graph, bandwidth=None)
    return list(reversed(result.eliminated_order()))


def random_order(graph: Graph, seed: int) -> list[int]:
    """Uniform random order (control / stress testing)."""
    order = list(graph.nodes())
    random.Random(seed).shuffle(order)
    return order


def validate_order(graph: Graph, order: list[int]) -> None:
    """Raise :class:`GraphError` unless ``order`` permutes the node set."""
    if sorted(order) != list(graph.nodes()):
        raise GraphError("vertex order is not a permutation of the node set")


ORDER_STRATEGIES = {
    "degree": degree_order,
    "degeneracy": degeneracy_based_order,
    "elimination": elimination_based_order,
}


def make_order(graph: Graph, strategy: str = "degree") -> list[int]:
    """Resolve an order strategy by name."""
    try:
        factory = ORDER_STRATEGIES[strategy]
    except KeyError:
        known = ", ".join(sorted(ORDER_STRATEGIES))
        raise GraphError(f"unknown order strategy {strategy!r}; known: {known}") from None
    return factory(graph)
