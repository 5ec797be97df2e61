"""NumPy pruned landmark search (the PLL construction kernel).

PLL runs one pruned search per root in rank order; the scalar builders
in :mod:`repro.labeling.pll` pop one vertex at a time and probe its
label against the root's with a dict.  This kernel runs the same
searches as a handful of array operations per frontier, in rank space
over a CSR copy of the graph (``indptr``, neighbour ranks, weights):

1. **Root table.**  ``T[z] = d(r, z)`` for every hub ``z`` of the
   root's finished label, in a dense array reset after the root — the
   standard PLL probe table.
2. **Relaxation.**  A frontier Bellman–Ford from the root.  A candidate
   distance to ``u`` is dropped when it is ``>= dist[u]`` (no
   improvement) or ``>= q[u]`` (pruned), where the prune bound
   ``q[u] = min over z in L(u) of T[z] + d(z, u)`` is PLL's query,
   computed once per root for each vertex the search reaches by one
   gather over those vertices' label rows and a ``minimum.reduceat``.
   The work per root is the scalar search's: the labels of the
   vertices it reaches.
3. **Emit.**  Every touched vertex gains the entry ``(r, dist[v])`` at
   its final distance — appended to its row, so rows stay in ascending
   hub rank — and the budget is charged once per root.

The result is the scalar builders' label set entry for entry.  Both
paths compute the same fixpoint: a vertex holds a distance only if it
is below its prune bound, and it relaxes its neighbours from its final
value (Dijkstra expands a vertex once, at its final distance;
Bellman–Ford's improvements converge on the same value because
floating-point addition of a non-negative weight is monotone).  The
prune bound sums the same two label values as the scalar probe, so it
is bit-identical too.  Only distance *types* need care: integer weights
run on ``int64`` and float weights on ``float64`` (with the root's own
entry kept as the integer ``0`` the scalar search starts from), while
graphs mixing the two, or with weights whose sums could leave
``int64``, raise :class:`UnsupportedWeights` before any work so the
caller builds them with the scalar path.

Memory stays O(labels + n + m): label rows live in one buffer that is
repacked whenever it fills, and the per-root scratch (distances, probe
table, probed flags) is reset only where the root touched it.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.graphs.graph import Graph, Weight
from repro.kernels.graph_arrays import csr_views
from repro.kernels.psl_rounds import expand_runs
from repro.labeling.base import MemoryBudget

#: Distance sentinel of the integer path.  Weights are refused unless
#: every reachable sum stays below it, and a prune bound (two label
#: distances) or a candidate (one distance plus one weight) never
#: overflows when added to it.
_INT_INF = np.int64(1) << np.int64(61)


class UnsupportedWeights(ValueError):
    """The kernel cannot reproduce the scalar labels of this graph's weights.

    Raised before any label is built or any budget charged; the message
    is the reason :func:`repro.labeling.pll.build_pll` records on its
    span when it falls back to the scalar path.
    """


class _LabelRows:
    """Per-vertex label rows ``(hub ranks, distances)`` in one buffer.

    Each row is a segment that moves to the end of the buffer at twice
    its capacity when full; when the buffer itself fills, the live
    segments are repacked into a fresh one, so the buffer stays within
    a constant factor of the entries it holds.
    """

    def __init__(self, n: int, dtype: np.dtype) -> None:
        self.start = np.zeros(n, dtype=np.int64)
        self.cap = np.zeros(n, dtype=np.int64)
        self.len = np.zeros(n, dtype=np.int64)
        self.hubs = np.empty(0, dtype=np.int64)
        self.dists = np.empty(0, dtype=dtype)
        self.tail = 0

    def entries(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Buffer positions of the rows of ``vs``, concatenated, and their lengths."""
        lens = self.len[vs]
        return expand_runs(self.start[vs], lens), lens

    def append(self, vs: np.ndarray, hub: int, dists: np.ndarray) -> None:
        """Append ``(hub, dists[i])`` to the row of each (distinct) ``vs[i]``."""
        full = vs[self.len[vs] == self.cap[vs]]
        if full.size:
            self._move(full)
        pos = self.start[vs] + self.len[vs]
        self.hubs[pos] = hub
        self.dists[pos] = dists
        self.len[vs] += 1

    def _move(self, vs: np.ndarray) -> None:
        cap = np.maximum(2 * self.cap[vs], 4)
        total = int(cap.sum())
        if self.tail + total > self.hubs.size:
            self._repack(total)
        start = self.tail + np.cumsum(cap) - cap
        lens = self.len[vs]
        src = expand_runs(self.start[vs], lens)
        dst = expand_runs(start, lens)
        self.hubs[dst] = self.hubs[src]
        self.dists[dst] = self.dists[src]
        self.start[vs] = start
        self.cap[vs] = cap
        self.tail += total

    def _repack(self, extra: int) -> None:
        """Copy the live segments into a buffer with room for ``extra`` more."""
        live = np.flatnonzero(self.cap)
        cap = self.cap[live]
        start = np.cumsum(cap) - cap
        self.tail = int(cap.sum())
        size = max(2 * (self.tail + extra), 1024)
        lens = self.len[live]
        src = expand_runs(self.start[live], lens)
        dst = expand_runs(start, lens)
        hubs = np.empty(size, dtype=self.hubs.dtype)
        dists = np.empty(size, dtype=self.dists.dtype)
        hubs[dst] = self.hubs[src]
        dists[dst] = self.dists[src]
        self.hubs, self.dists = hubs, dists
        self.start[live] = start


def _distinct(values: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """``values`` without repeats, in no particular order, without sorting.

    ``slot`` is scratch indexed by value; whichever write to a repeated
    value lands last, exactly one of its positions reads itself back.
    """
    positions = np.arange(values.size)
    slot[values] = positions
    return values[slot[values] == positions]


def _rank_weights(graph: Graph, positions: np.ndarray) -> np.ndarray:
    """Edge weights at CSR ``positions`` (the rank-space order), typed for exact sums.

    Unweighted graphs count integer hops whatever the stored weights (a
    graph of ``1.0`` weights is unweighted too), as the scalar BFS does.
    Raises :class:`UnsupportedWeights` for weights the kernel cannot
    reproduce exactly.
    """
    weights = graph.weights
    if graph.unweighted or weights is None:
        return np.ones(positions.size, dtype=np.int64)
    if isinstance(weights, array) and weights.typecode == "q":
        picked = np.frombuffer(weights, dtype=np.int64)[positions]
        if picked.size and int(picked.max()) * graph.n >= int(_INT_INF):
            raise UnsupportedWeights("path lengths exceed int64")
        return picked
    if isinstance(weights, array) and weights.typecode == "d":
        return np.frombuffer(weights, dtype=np.float64)[positions]
    # A list: ints beyond int64, int and float mixed, or non-native types.
    kinds = set(map(type, weights))
    if kinds <= {int}:
        raise UnsupportedWeights("path lengths exceed int64")
    if kinds <= {int, float}:
        raise UnsupportedWeights("mixed int and float weights")
    raise UnsupportedWeights("non-native weight types")


def pruned_search_labels(
    graph: Graph,
    order: list[int],
    budget: MemoryBudget,
    budget_exempt: frozenset[int],
) -> tuple[list[list[int]], list[list[Weight]]]:
    """PLL labels of ``graph`` under ``order``, one vectorized search per root.

    Returns ``(hub_ranks, hub_dists)`` indexed by node, each label in
    ascending hub rank — the lists
    :meth:`~repro.labeling.hub_labels.HubLabeling.from_rank_lists`
    adopts.  Raises :class:`UnsupportedWeights` up front for weights the
    kernel cannot reproduce, and
    :class:`~repro.exceptions.OverMemoryError` as soon as a root's
    entries exceed ``budget``; entries of ``budget_exempt`` nodes are
    not charged.
    """
    n = graph.n
    node_of = np.asarray(order, dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[node_of] = np.arange(n, dtype=np.int64)
    # The rank-space CSR: row i is node order[i]'s row, gathered once.
    graph_indptr, graph_indices = csr_views(graph)
    degrees = np.diff(graph_indptr)[node_of]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    positions = expand_runs(graph_indptr[node_of], degrees)
    weights = _rank_weights(graph, positions)
    nbrs = rank[graph_indices[positions]]
    dtype = weights.dtype
    floats = dtype == np.float64
    inf = np.inf if floats else _INT_INF
    exempt = np.zeros(n, dtype=bool)
    if budget_exempt:
        exempt[rank[np.fromiter(budget_exempt, dtype=np.int64)]] = True

    rows = _LabelRows(n, dtype)
    table = np.full(n, inf, dtype=dtype)  # T[z] = d(r, z) over r's hubs
    # min(dist[u], q[u]) for the current root: inf until u is probed,
    # then q[u], then the distance of u's best unpruned candidate.
    limit = np.full(n, inf, dtype=dtype)
    slot = np.empty(n, dtype=np.int64)  # scratch of _distinct
    for r in range(n):
        # 1. The root's probe table.
        lo = int(rows.start[r])
        hubs = rows.hubs[lo : lo + int(rows.len[r])]
        hub_dists = rows.dists[lo : lo + hubs.size]
        if (hub_dists == 0).any():
            # A higher-ranked hub at distance 0 already covers r itself.
            continue
        table[hubs] = hub_dists

        # 2. Frontier Bellman–Ford, pruned against each reached vertex's bound.
        limit[r] = 0
        frontier = np.array([r], dtype=np.int64)
        reached = [frontier]
        probes = []
        while True:
            starts = indptr[frontier]
            lens = indptr[frontier + 1] - starts
            edges = expand_runs(starts, lens)
            targets = nbrs[edges]
            cand = np.repeat(limit[frontier], lens) + weights[edges]
            keep = cand < limit[targets]
            targets, cand = targets[keep], cand[keep]
            fresh = targets[limit[targets] == inf]
            if fresh.size:
                # First reached: probe once, then drop what the bound prunes.
                fresh = _distinct(fresh, slot)
                probes.append(fresh)
                idx, row_lens = rows.entries(fresh)
                q = np.full(fresh.size, inf, dtype=dtype)
                if idx.size:
                    via = table[rows.hubs[idx]] + rows.dists[idx]
                    nonempty = row_lens > 0
                    offsets = (np.cumsum(row_lens) - row_lens)[nonempty]
                    q[nonempty] = np.minimum.reduceat(via, offsets)
                limit[fresh] = q
                keep = cand < limit[targets]
                targets, cand = targets[keep], cand[keep]
            if not targets.size:
                break
            np.minimum.at(limit, targets, cand)
            frontier = _distinct(targets, slot)
            reached.append(frontier)

        # 3. Emit the entries in ascending rank and charge the budget.
        table[hubs] = inf
        touched = np.unique(np.concatenate(reached)) if len(reached) > 1 else reached[0]
        charged = touched.size - int(np.count_nonzero(exempt[touched]))
        if charged:
            budget.charge(charged)
        rows.append(touched, r, limit[touched])
        limit[r] = inf
        for fresh in probes:  # every vertex whose limit was set
            limit[fresh] = inf

    idx, lens = rows.entries(np.arange(n, dtype=np.int64))
    flat_hubs = rows.hubs[idx]
    flat_dists = rows.dists[idx].tolist()
    if floats:
        # Each root's own entry is the integer 0 the scalar search starts from.
        owner = np.repeat(np.arange(n, dtype=np.int64), lens)
        for pos in np.flatnonzero(flat_hubs == owner).tolist():
            flat_dists[pos] = 0
    flat_ranks = flat_hubs.tolist()
    cuts = np.concatenate(([0], np.cumsum(lens))).tolist()
    return (
        [flat_ranks[cuts[i] : cuts[i + 1]] for i in rank.tolist()],
        [flat_dists[cuts[i] : cuts[i + 1]] for i in rank.tolist()],
    )
