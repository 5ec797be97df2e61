"""Static undirected graph with non-negative edge weights.

The :class:`Graph` type is the substrate every index in this library is
built on.  Nodes are the integers ``0 .. n-1``; the adjacency is stored
in CSR form — ``indptr`` and ``indices`` as ``array('q')`` (neighbour
ids of each row sorted ascending) plus an aligned weight sequence — so
NumPy consumers wrap it zero-copy with ``np.frombuffer`` and the
structure is effectively immutable after construction.  The per-node
tuple rows the scalar algorithms walk (:meth:`Graph.neighbor_ids`,
:meth:`Graph.neighbor_weights`, :meth:`Graph.neighbors`) are a view,
built in one pass the first time something asks for them.

Graphs are *simple*: no self-loops and no parallel edges.  Use
:class:`repro.graphs.builder.GraphBuilder` (or :meth:`Graph.from_edges`)
to normalize raw edge lists into this form.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from itertools import accumulate, chain, repeat
from operator import sub
from typing import Union

from repro.exceptions import GraphError

Weight = Union[int, float]
Edge = tuple[int, int, Weight]

#: Distance value used for unreachable node pairs.
INF = math.inf

#: Slots of the tuple-row view, built on first access.
_ROW_VIEW = ("_adj_ids", "_adj_weights")


def pack_weights(values: list[Weight]) -> array | list[Weight] | None:
    """The weight storage of a CSR :class:`Graph` for ``values``.

    ``None`` when every weight is the integer 1; ``array('q')`` when all
    are ints (within int64) and ``array('d')`` when all are floats;
    otherwise the list itself.  Each weight keeps its Python type, so
    the tuple view and every fingerprint see exactly the given values.
    """
    kinds = set(map(type, values))
    if kinds <= {int}:
        if values.count(1) == len(values):
            return None
        try:
            return array("q", values)
        except OverflowError:
            return values
    if kinds == {float}:
        return array("d", values)
    return values


def int64_array(values) -> array:
    """``values`` (``array('q')``, an int ndarray or an iterable) as ``array('q')``."""
    if isinstance(values, array) and values.typecode == "q":
        return values
    if hasattr(values, "dtype"):  # an ndarray: one buffer copy, no boxing
        out = array("q")
        out.frombytes(values.astype("q", copy=False).tobytes())
        return out
    return array("q", values)


class Graph:
    """An undirected, weighted, simple graph on nodes ``0 .. n-1``.

    Instances should be treated as immutable; all mutating workflows go
    through :class:`repro.graphs.builder.GraphBuilder`.

    Storage is CSR: :attr:`indptr` (``n + 1`` offsets) and
    :attr:`indices` (``2m`` neighbour ids, each row ascending) are
    ``array('q')``; :attr:`weights` is ``None`` when every weight is the
    integer 1, else a sequence aligned with :attr:`indices` (see
    :func:`pack_weights`).  The tuple rows behind
    :meth:`neighbor_ids` / :meth:`neighbor_weights` / :meth:`neighbors`
    are built in one O(n + m) pass on first use and kept.
    """

    __slots__ = ("_n", "_m", "_indptr", "_indices", "_weights", "_unweighted", *_ROW_VIEW)

    def __init__(
        self,
        n: int,
        adjacency: list[list[tuple[int, Weight]]],
        *,
        unweighted: bool,
    ) -> None:
        """Build a graph from a pre-normalized adjacency structure.

        ``adjacency[v]`` must list each neighbor of ``v`` exactly once as a
        ``(neighbor, weight)`` pair, must be symmetric, and must not contain
        self-loops.  Most callers should use :meth:`from_edges` instead,
        which performs that normalization.
        """
        if n < 0:
            raise GraphError(f"node count must be non-negative, got {n}")
        if len(adjacency) != n:
            raise GraphError(f"adjacency has {len(adjacency)} rows for {n} nodes")
        adj_ids: list[tuple[int, ...]] = []
        adj_weights: list[tuple[Weight, ...]] = []
        m2 = 0
        for v, row in enumerate(adjacency):
            row = sorted(row)
            ids = tuple(u for u, _ in row)
            for u in ids:
                if not 0 <= u < n:
                    raise GraphError(f"neighbor {u} of node {v} is out of range")
                if u == v:
                    raise GraphError(f"self-loop on node {v}")
            if len(set(ids)) != len(ids):
                raise GraphError(f"parallel edges at node {v}")
            adj_ids.append(ids)
            adj_weights.append(tuple(w for _, w in row))
            m2 += len(ids)
        if m2 % 2 != 0:
            raise GraphError("adjacency is not symmetric (odd half-edge count)")
        self._adopt_rows(n, adj_ids, adj_weights, unweighted)

    def _adopt_rows(
        self,
        n: int,
        adj_ids: list[tuple[int, ...]],
        adj_weights: list[tuple[Weight, ...]],
        unweighted: bool,
    ) -> None:
        """Set the CSR from sorted tuple rows, keeping the rows as the view."""
        self._n = n
        self._indptr = array("q", accumulate(map(len, adj_ids), initial=0))
        self._indices = array("q", chain.from_iterable(adj_ids))
        self._weights = pack_weights(list(chain.from_iterable(adj_weights)))
        self._m = len(self._indices) // 2
        self._unweighted = unweighted
        self._adj_ids = adj_ids
        self._adj_weights = adj_weights

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, ...]],
    ) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` or ``(u, v, w)`` tuples.

        Self-loops are dropped; parallel edges keep the minimum weight.
        Missing weights default to 1 and the graph is flagged unweighted
        when every surviving edge has weight exactly 1.
        """
        from repro.graphs.builder import GraphBuilder

        builder = GraphBuilder(n)
        for edge in edges:
            builder.add_edge(*edge)
        return builder.build()

    @classmethod
    def empty(cls, n: int) -> "Graph":
        """Return a graph with ``n`` nodes and no edges."""
        return cls(n, [[] for _ in range(n)], unweighted=True)

    @classmethod
    def _from_trusted_rows(
        cls,
        n: int,
        adj_ids: list[tuple[int, ...]],
        adj_weights: list[tuple[Weight, ...]],
        *,
        unweighted: bool,
    ) -> "Graph":
        """Adopt pre-validated sorted adjacency rows without re-checking.

        Internal fast path for loaders that have already enforced the
        simple-graph invariants in bulk (the scalar snapshot reader
        checks bounds, weights, loops, and duplicates against
        CRC-verified arrays before calling this).  ``adj_ids[v]`` must
        be strictly ascending and symmetric with ``adj_weights``
        aligned.
        """
        graph = cls.__new__(cls)
        graph._adopt_rows(n, adj_ids, adj_weights, unweighted)
        return graph

    @classmethod
    def _from_csr(
        cls,
        n: int,
        indptr,
        indices,
        weights: array | list[Weight] | None,
        *,
        unweighted: bool,
    ) -> "Graph":
        """Adopt a pre-validated CSR without re-checking.

        ``indptr`` / ``indices`` may be ``array('q')`` or integer
        ndarrays; each row must be strictly ascending and the structure
        symmetric.  ``weights`` is already in :func:`pack_weights` form.
        The array producers (edge-list loader, twin reduction, snapshot
        decoder) build graphs this way, without a tuple view.
        """
        graph = cls.__new__(cls)
        graph._n = n
        graph._indptr = int64_array(indptr)
        graph._indices = int64_array(indices)
        graph._weights = weights
        graph._m = len(graph._indices) // 2
        graph._unweighted = unweighted
        return graph

    def __getattr__(self, name: str):
        # Only reached for unset slots: build the tuple-row view once.
        if name in _ROW_VIEW:
            self._build_row_view()
            return object.__getattribute__(self, name)
        raise AttributeError(name)

    def _build_row_view(self) -> None:
        """Split the CSR into the per-node tuple rows, in one pass."""
        bounds = self._indptr.tolist()
        flat_ids = self._indices.tolist()
        spans = list(zip(bounds, bounds[1:]))
        adj_ids = [tuple(flat_ids[lo:hi]) for lo, hi in spans]
        weights = self._weights
        if weights is None:
            widest = max(map(len, adj_ids), default=0)
            unit_rows = [(1,) * k for k in range(widest + 1)]
            adj_weights = [unit_rows[len(ids)] for ids in adj_ids]
        else:
            flat_weights = weights.tolist() if isinstance(weights, array) else weights
            adj_weights = [tuple(flat_weights[lo:hi]) for lo, hi in spans]
        self._adj_ids = adj_ids
        self._adj_weights = adj_weights

    def __reduce__(self):
        # Pickle the CSR only; the tuple view is rebuilt on demand.
        return (
            _graph_from_csr,
            (self._n, self._indptr, self._indices, self._weights, self._unweighted),
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of (undirected) edges."""
        return self._m

    @property
    def unweighted(self) -> bool:
        """True when every edge weight is exactly 1."""
        return self._unweighted

    @property
    def indptr(self) -> array:
        """CSR row offsets, ``array('q')`` of length ``n + 1`` (read-only)."""
        return self._indptr

    @property
    def indices(self) -> array:
        """CSR neighbour ids, ``array('q')`` of length ``2m``, each row ascending."""
        return self._indices

    @property
    def weights(self) -> array | list[Weight] | None:
        """Weights aligned with :attr:`indices`; ``None`` when all are the int 1."""
        return self._weights

    def nodes(self) -> range:
        """All node ids, as a range."""
        return range(self._n)

    def degree(self, v: int) -> int:
        """Number of neighbors of ``v``."""
        self._check_node(v)
        return self._indptr[v + 1] - self._indptr[v]

    def neighbor_ids(self, v: int) -> tuple[int, ...]:
        """Neighbor ids of ``v``, sorted ascending."""
        self._check_node(v)
        return self._adj_ids[v]

    def neighbor_weights(self, v: int) -> tuple[Weight, ...]:
        """Edge weights aligned with :meth:`neighbor_ids`."""
        self._check_node(v)
        return self._adj_weights[v]

    def neighbors(self, v: int) -> Iterator[tuple[int, Weight]]:
        """Iterate over ``(neighbor, weight)`` pairs of ``v``."""
        self._check_node(v)
        return zip(self._adj_ids[v], self._adj_weights[v])

    def has_edge(self, u: int, v: int) -> bool:
        """True when ``{u, v}`` is an edge."""
        return self._edge_position(u, v) >= 0

    def edge_weight(self, u: int, v: int) -> Weight:
        """Weight of edge ``{u, v}``; raises :class:`GraphError` if absent."""
        pos = self._edge_position(u, v)
        if pos < 0:
            raise GraphError(f"edge ({u}, {v}) does not exist")
        return 1 if self._weights is None else self._weights[pos]

    def edges(self) -> Iterator[Edge]:
        """Iterate over every edge once as ``(u, v, w)`` with ``u < v``."""
        indptr, indices, weights = self._indptr, self._indices, self._weights
        for u in range(self._n):
            hi = indptr[u + 1]
            lo = bisect_right(indices, u, indptr[u], hi)
            if weights is None:
                yield from zip(repeat(u), indices[lo:hi], repeat(1))
            else:
                yield from zip(repeat(u), indices[lo:hi], weights[lo:hi])

    def total_weight(self) -> Weight:
        """Sum of all edge weights."""
        return sum(w for _, _, w in self.edges())

    def max_degree(self) -> int:
        """Largest node degree (0 for an empty graph)."""
        indptr = self._indptr
        return max(map(sub, indptr[1:], indptr), default=0)

    def average_degree(self) -> float:
        """Mean node degree (0.0 for an empty graph)."""
        if self._n == 0:
            return 0.0
        return 2.0 * self._m / self._n

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def induced_subgraph(self, nodes: Iterable[int]) -> tuple["Graph", list[int]]:
        """Return ``(subgraph, originals)`` for the induced subgraph on ``nodes``.

        Subgraph node ``i`` corresponds to original node ``originals[i]``;
        the originals are sorted ascending.  Duplicate input nodes are
        collapsed.
        """
        originals = sorted(set(nodes))
        for v in originals:
            self._check_node(v)
        remap = {v: i for i, v in enumerate(originals)}
        adjacency: list[list[tuple[int, Weight]]] = [[] for _ in originals]
        for i, v in enumerate(originals):
            for u, w in self.neighbors(v):
                j = remap.get(u)
                if j is not None:
                    adjacency[i].append((j, w))
        return Graph(len(originals), adjacency, unweighted=self._unweighted), originals

    def relabeled(self, new_id: list[int]) -> "Graph":
        """Return a copy where original node ``v`` becomes ``new_id[v]``.

        ``new_id`` must be a permutation of ``0 .. n-1``.
        """
        if sorted(new_id) != list(range(self._n)):
            raise GraphError("relabeling is not a permutation of the node ids")
        adjacency: list[list[tuple[int, Weight]]] = [[] for _ in range(self._n)]
        for v in range(self._n):
            row = adjacency[new_id[v]]
            for u, w in self.neighbors(v):
                row.append((new_id[u], w))
        return Graph(self._n, adjacency, unweighted=self._unweighted)

    def with_unit_weights(self) -> "Graph":
        """Return the same topology with all edge weights replaced by 1."""
        return Graph._from_csr(
            self._n, self._indptr, self._indices, None, unweighted=True
        )

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        kind = "unweighted" if self._unweighted else "weighted"
        return f"Graph(n={self._n}, m={self._m}, {kind})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if not (
            self._n == other._n
            and self._indptr == other._indptr
            and self._indices == other._indices
        ):
            return False
        if self._weights is None and other._weights is None:
            return True
        return self._weight_list() == other._weight_list()

    def __hash__(self) -> int:
        return hash((self._n, tuple(self._indptr), tuple(self._indices)))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_node(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise GraphError(f"node {v} is out of range for a {self._n}-node graph")

    def _edge_position(self, u: int, v: int) -> int:
        """CSR position of ``v`` in the row of ``u``, or -1 if not adjacent."""
        self._check_node(u)
        self._check_node(v)
        lo, hi = self._indptr[u], self._indptr[u + 1]
        pos = bisect_left(self._indices, v, lo, hi)
        return pos if pos < hi and self._indices[pos] == v else -1

    def _weight_list(self) -> list[Weight]:
        """Every weight, aligned with :attr:`indices`, as a list."""
        if self._weights is None:
            return [1] * len(self._indices)
        return list(self._weights)


def _graph_from_csr(n, indptr, indices, weights, unweighted) -> Graph:
    """Unpickling hook of :class:`Graph`."""
    return Graph._from_csr(n, indptr, indices, weights, unweighted=unweighted)
