"""Weighted Minimum Degree Elimination (MDE) — Algorithm 1, lines 1-17.

MDE repeatedly removes the node with the smallest degree from a working
graph and re-inserts the clique of its neighbors.  Following the paper's
adapted MDE, every clique edge ``(u, w)`` created while eliminating ``v``
carries the weight ``δ⁻(u) + δ⁻(w)`` — the length of the wedge through
``v`` — and an existing edge keeps the smaller of its old and new weight.
By Lemma 14, the weight ``δ⁻_i(u)`` recorded when edge ``(v_i, u)`` is
deleted equals the ``(i-1)``-local distance between ``v_i`` and ``u``;
that is what makes both the tree-index and the weighted core graph
``G_{λ+1}`` exact.

Two termination modes:

* ``bandwidth=None`` — run to completion (full MDE tree decomposition,
  used by H2H and treewidth estimation);
* ``bandwidth=d`` — stop as soon as the minimum degree *exceeds* ``d``
  (Section 4.3: the eliminated bags have at most ``d + 1`` nodes, so
  every interface has at most ``d`` nodes — the paper's Example 5);
  the remaining nodes are the core ``B_c``.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate
from operator import sub

import repro.obs as obs
from repro.exceptions import DecompositionError
from repro.graphs.graph import Graph, Weight
from repro.obs.tracing import span as obs_span


@dataclasses.dataclass
class EliminationStep:
    """One round of MDE: the eliminated node and its transient neighborhood.

    A per-bag view of :class:`EliminationResult`'s arrays, built only by
    :attr:`EliminationResult.steps`.

    Attributes
    ----------
    node:
        The eliminated node ``v_i``.
    neighbors:
        ``N_i`` — the neighbors of ``v_i`` in the working graph right
        before its removal, sorted ascending by node id.  The bag
        ``B_i = {v_i} ∪ N_i``.
    local_distance:
        ``δ⁻_i(u)`` for each ``u ∈ N_i``: the weight of edge ``(v_i, u)``
        at deletion time, i.e. the ``(i-1)``-local distance (Lemma 14).
    """

    node: int
    neighbors: tuple[int, ...]
    local_distance: dict[int, Weight]

    @property
    def bag_size(self) -> int:
        """``|B_i| = |N_i| + 1``."""
        return len(self.neighbors) + 1


@dataclasses.dataclass(eq=False)
class EliminationResult:
    """Everything the MDE run produced, as flat arrays.

    The bags are a CSR in elimination order: bag ``i`` belongs to
    ``order[i]`` (``v_{i+1}`` in paper numbering), its transient
    neighbors ``N_i`` are ``neighbors[offsets[i]:offsets[i + 1]]``
    (ascending), and ``local`` holds the aligned ``δ⁻_i(u)`` — the
    weight of edge ``(v_i, u)`` at deletion time, i.e. the
    ``(i-1)``-local distance (Lemma 14).  The residual core is stored
    the same way, one row per core node: ``core_nodes[k]``'s
    neighbors in ``G_{λ+1}`` are the next ``core_counts[k]`` entries of
    ``core_targets`` (ascending), with λ-local distance edge weights in
    ``core_weights``.

    The arrays may be lists (a build), ``array.array`` copies (a
    snapshot load) or :class:`~repro.storage.mapped.MappedArray` views
    (an ``mmap=True`` load, which adopts the file's arrays as-is).
    :attr:`steps` and :attr:`core_adjacency` are object views built on
    first access; nothing on the query path asks for them.

    Attributes
    ----------
    graph:
        The input graph (``None`` in a forest-labelling worker, which
        only receives the bags).
    position:
        ``position[v]`` is the 0-based elimination position of node ``v``,
        or ``None`` when ``v`` survived into the core.
    core_nodes:
        Sorted node ids of the core ``B_c`` (empty for a full run).
    bandwidth:
        The ``d`` the run was stopped with (``None`` = run to completion).
    """

    graph: Graph | None
    order: Sequence[int]
    offsets: Sequence[int]
    neighbors: Sequence[int]
    local: Sequence[Weight]
    position: list[int | None]
    core_nodes: list[int]
    core_counts: Sequence[int]
    core_targets: Sequence[int]
    core_weights: Sequence[Weight]
    bandwidth: int | None

    @classmethod
    def from_arrays(
        cls,
        graph: Graph,
        bandwidth: int | None,
        *,
        order: Sequence[int],
        counts: Sequence[int],
        neighbors: Sequence[int],
        local: Sequence[Weight],
        core_nodes: list[int],
        core_counts: Sequence[int],
        core_targets: Sequence[int],
        core_weights: Sequence[Weight],
    ) -> "EliminationResult":
        """Adopt untrusted bag arrays (a loaded index), checking every id.

        ``counts`` are the bag sizes ``|N_i|``.  Raises
        :class:`~repro.exceptions.DecompositionError` for ragged arrays,
        ids outside ``0 .. graph.n - 1`` (a negative id would otherwise
        alias a real node through Python's negative indexing), a node
        eliminated twice, or a core that is not exactly the nodes left
        uneliminated.
        """
        n = graph.n
        if len(order) != len(counts) or len(neighbors) != len(local):
            raise DecompositionError("ragged elimination arrays")
        if len(core_nodes) != len(core_counts) or len(core_targets) != len(core_weights):
            raise DecompositionError("ragged core-adjacency arrays")
        for name, ids in (
            ("eliminated node", order),
            ("bag neighbor", neighbors),
            ("core node", core_nodes),
            ("core neighbor", core_targets),
        ):
            if len(ids) and not (0 <= min(ids) and max(ids) < n):
                raise DecompositionError(f"{name} id outside 0..{n - 1}")
        if (len(counts) and min(counts) < 0) or sum(counts) != len(neighbors):
            raise DecompositionError("bag sizes do not add up to the neighbor array")
        if (len(core_counts) and min(core_counts) < 0) or sum(core_counts) != len(
            core_targets
        ):
            raise DecompositionError("core row sizes do not add up to the target array")
        position: list[int | None] = [None] * n
        for i, v in enumerate(order):
            if position[v] is not None:
                raise DecompositionError(f"node {v} is eliminated twice")
            position[v] = i
        if core_nodes != sorted(set(core_nodes)):
            raise DecompositionError("core node list is not sorted-unique")
        if len(order) + len(core_nodes) != n or any(
            position[v] is not None for v in core_nodes
        ):
            raise DecompositionError("core nodes are not the uneliminated nodes")
        return cls(
            graph=graph,
            order=order,
            offsets=list(accumulate(counts, initial=0)),
            neighbors=neighbors,
            local=local,
            position=position,
            core_nodes=core_nodes,
            core_counts=core_counts,
            core_targets=core_targets,
            core_weights=core_weights,
            bandwidth=bandwidth,
        )

    @property
    def boundary(self) -> int:
        """λ — the number of eliminated nodes."""
        return len(self.order)

    @property
    def width(self) -> int:
        """Largest ``|N_i|`` over the eliminated prefix (0 when empty).

        For a full run this is the MDE-based treewidth of the graph.
        """
        return max(self.bag_sizes(), default=0)

    def bag_sizes(self) -> list[int]:
        """``|N_i|`` per position (the on-disk ``counts`` array)."""
        offsets = self.offsets
        return list(map(sub, offsets[1:], offsets[:-1]))

    def bag(self, pos: int) -> tuple[Sequence[int], Sequence[Weight]]:
        """``(N_i, δ⁻_i)`` of the bag at ``pos`` as aligned slices."""
        lo, hi = self.offsets[pos], self.offsets[pos + 1]
        return self.neighbors[lo:hi], self.local[lo:hi]

    def eliminated_order(self) -> list[int]:
        """Node ids in elimination order ``v_1, v_2, ...``."""
        return list(self.order)

    @functools.cached_property
    def steps(self) -> list[EliminationStep]:
        """One :class:`EliminationStep` per position (built on first access)."""
        steps = []
        for pos, node in enumerate(self.order):
            neighbors, local = self.bag(pos)
            neighbors = tuple(neighbors)
            steps.append(EliminationStep(node, neighbors, dict(zip(neighbors, local))))
        return steps

    def core_rows(self) -> Iterator[tuple[int, Sequence[int], Sequence[Weight]]]:
        """``(v, targets, weights)`` per core node: its row of ``G_{λ+1}``."""
        base = 0
        for v, count in zip(self.core_nodes, self.core_counts):
            stop = base + count
            yield v, self.core_targets[base:stop], self.core_weights[base:stop]
            base = stop

    @functools.cached_property
    def core_adjacency(self) -> dict[int, dict[int, Weight]]:
        """``core_adjacency[v]`` maps each core neighbor of ``v`` in
        ``G_{λ+1}`` to its λ-local distance (built on first access)."""
        return {v: dict(zip(targets, weights)) for v, targets, weights in self.core_rows()}

    def is_core(self, v: int) -> bool:
        """True when node ``v`` survived into the core."""
        return self.position[v] is None

    def rank(self, v: int) -> int:
        """Total order aligned with elimination: eliminated nodes get their
        position, core nodes get positions after every eliminated node."""
        pos = self.position[v]
        if pos is not None:
            return pos
        return self.boundary + self._core_rank[v]

    @functools.cached_property
    def _core_rank(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.core_nodes)}

    def core_graph(self) -> tuple[Graph, list[int]]:
        """Compact ``G_{λ+1}`` into a :class:`Graph`.

        Returns ``(graph, originals)``: core node ``i`` of the compact
        graph corresponds to original node ``originals[i]``.
        """
        originals = list(self.core_nodes)
        compact = {v: i for i, v in enumerate(originals)}
        adjacency = [
            [(compact[u], w) for u, w in zip(targets, weights)]
            for _, targets, weights in self.core_rows()
        ]
        unweighted = all(w == 1 for w in self.core_weights)
        return Graph(len(originals), adjacency, unweighted=unweighted), originals


def rows_to_csr(
    rows: Iterable[dict[int, Weight]],
) -> tuple[list[int], list[int], list[Weight]]:
    """Flatten dict rows into CSR ``(counts, targets, weights)``.

    Each row's targets come out ascending with their weights aligned —
    the layout of :class:`EliminationResult`'s bag and core arrays.
    """
    counts: list[int] = []
    targets: list[int] = []
    weights: list[Weight] = []
    for row in rows:
        keys = sorted(row)
        counts.append(len(keys))
        targets.extend(keys)
        weights.extend([row[u] for u in keys])
    return counts, targets, weights


class _BagWriter:
    """Appends eliminated bags and the residual core to flat lists."""

    def __init__(self, n: int) -> None:
        self.order: list[int] = []
        self.offsets: list[int] = [0]
        self.neighbors: list[int] = []
        self.local: list[Weight] = []
        self.position: list[int | None] = [None] * n

    def append(self, v: int, row: dict[int, Weight]) -> list[int]:
        """Record ``v``'s bag from its working row; returns ``N_i`` sorted."""
        neighbors = sorted(row)
        self.position[v] = len(self.order)
        self.order.append(v)
        self.neighbors.extend(neighbors)
        self.local.extend([row[u] for u in neighbors])
        self.offsets.append(len(self.neighbors))
        return neighbors

    def result(
        self,
        graph: Graph,
        adjacency: list[dict[int, Weight] | None],
        bandwidth: int | None,
    ) -> EliminationResult:
        core_nodes = [v for v, pos in enumerate(self.position) if pos is None]
        core_counts, core_targets, core_weights = rows_to_csr(
            adjacency[v] or {} for v in core_nodes
        )
        return EliminationResult(
            graph=graph,
            order=self.order,
            offsets=self.offsets,
            neighbors=self.neighbors,
            local=self.local,
            position=self.position,
            core_nodes=core_nodes,
            core_counts=core_counts,
            core_targets=core_targets,
            core_weights=core_weights,
            bandwidth=bandwidth,
        )


def _eliminate(
    adjacency: list[dict[int, Weight] | None], v: int, neighbors: list[int], row
) -> None:
    """Remove ``v`` and re-insert the weighted clique over its neighbors."""
    adjacency[v] = None
    for u in neighbors:
        row_u = adjacency[u]
        assert row_u is not None  # neighbors of a live node are live
        del row_u[v]
    for a_index, u in enumerate(neighbors):
        row_u = adjacency[u]
        du = row[u]
        for w in neighbors[a_index + 1 :]:
            wedge = du + row[w]
            row_w = adjacency[w]
            old = row_u.get(w)
            if old is None or wedge < old:
                row_u[w] = wedge
                row_w[u] = wedge


def minimum_degree_elimination(
    graph: Graph,
    bandwidth: int | None = None,
    *,
    max_steps: int | None = None,
) -> EliminationResult:
    """Run (weighted, adapted) MDE on ``graph``.

    Parameters
    ----------
    graph:
        Input graph; edge weights seed the local distances.
    bandwidth:
        Stop once the minimum working degree exceeds this value (the
        paper's ``d``).  ``None`` runs to completion; ``0`` eliminates
        only degree-0 nodes (the whole graph is the core, CT-0 = PLL).
    max_steps:
        Optional hard cap on eliminations, for incremental callers.
    """
    if bandwidth is not None and bandwidth < 0:
        raise DecompositionError(f"bandwidth must be non-negative, got {bandwidth}")

    # Dynamic working graph: adjacency[v] is None once v is eliminated.
    adjacency: list[dict[int, Weight] | None] = [
        dict(graph.neighbors(v)) for v in graph.nodes()
    ]
    heap: list[tuple[int, int]] = [(len(adjacency[v] or {}), v) for v in graph.nodes()]
    heapq.heapify(heap)

    bags = _BagWriter(graph.n)
    order = bags.order
    step_cap = max_steps if max_steps is not None else graph.n
    cutoff_degree: int | None = None

    with obs_span(
        "treedec.mde", n=graph.n, m=graph.m, bandwidth=bandwidth
    ) as mde_span:
        while heap and len(order) < step_cap:
            degree, v = heapq.heappop(heap)
            row = adjacency[v]
            if row is None or degree != len(row):
                continue  # stale heap entry
            if bandwidth is not None and degree > bandwidth:
                # Paper semantics (Section 4.3 / Example 5): the eliminated
                # bags have at most d+1 nodes (|N_i| <= d), and elimination
                # stops at the first bag that would exceed that — so every
                # tree interface has at most d nodes.
                cutoff_degree = degree
                break
            neighbors = bags.append(v, row)
            _eliminate(adjacency, v, neighbors, row)
            for u in neighbors:
                heapq.heappush(heap, (len(adjacency[u]), u))

        result = bags.result(graph, adjacency, bandwidth)
        if obs.tracing_enabled():
            mde_span.set(
                boundary=result.boundary,
                core=len(result.core_nodes),
                width=result.width,
                cutoff_degree=cutoff_degree,
            )
    if obs.enabled():
        metrics = obs.registry()
        metrics.counter("mde.rounds").inc(result.boundary)
        if cutoff_degree is not None:
            metrics.counter("mde.bandwidth_cutoffs").inc()
            metrics.gauge("mde.cutoff_degree").set(cutoff_degree)
    return result


def elimination_width_profile(graph: Graph) -> list[int]:
    """``|N_i|`` per elimination round of a full MDE run.

    The profile is the shape that decides how the CT-Index trade-off
    behaves: the boundary λ for bandwidth ``d`` is the first position
    where the *residual minimum degree* reaches ``d``, i.e. where this
    profile first touches ``d``.
    """
    result = minimum_degree_elimination(graph, bandwidth=None)
    return result.bag_sizes()
