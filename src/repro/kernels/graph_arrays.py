"""Array kernels over :class:`~repro.graphs.graph.Graph`'s CSR.

A graph's ``indptr`` / ``indices`` are ``array('q')``, so NumPy wraps
them without a copy (:func:`csr_views`).  This module holds the build
steps that work on those arrays instead of the per-node tuple rows:

* :func:`symmetric_csr` — the CSR of a deduplicated edge list, shared by
  the edge-list loader and the twin-reduction quotient;
* :func:`upper_triangle` — every edge once as ``u < v`` arrays, in
  :meth:`~repro.graphs.graph.Graph.edges` order (the snapshot writer);
* :func:`eliminate_twins` — the Section 7 twin reduction, equal field
  for field to the scalar
  :func:`~repro.graphs.reductions.eliminate_equivalent_nodes` path.

**Twin reduction.**  Rows are grouped by degree and two salted 64-bit
row sums (each neighbour id mapped through a splitmix64 mix of
``id + salt``, summed modulo 2⁶⁴), once over open and once over closed
neighbourhoods.  A hash group is only a candidate: every member's row is
then compared element by element with the row of the group's smallest
remaining node, the matching members form that node's class, and the
non-matching members are regrouped and compared again, so a hash
collision splits a group exactly and never folds two different rows.
The quotient graph is the ``np.unique`` of the mapped edge keys.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.reductions import TWIN_KIND_CODES, TwinKinds
from repro.kernels.psl_rounds import expand_runs

#: Salts of the two row hashes.
SALTS = (0x9E3779B97F4A7C15, 0xD1B54A32D192ED03)

#: ``twin_kind`` codes of :func:`eliminate_twins`.
_FALSE, _TRUE = TWIN_KIND_CODES["false"], TWIN_KIND_CODES["true"]


def csr_views(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy ``int64`` views of ``graph.indptr`` and ``graph.indices``."""
    return (
        np.frombuffer(graph.indptr, dtype=np.int64),
        np.frombuffer(graph.indices, dtype=np.int64),
    )


def symmetric_csr(
    n: int, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR of the undirected edges ``{lo[i], hi[i]}`` (distinct, ``lo < hi``).

    Returns ``(indptr, indices, source)``: each row ascending, and
    ``source[p]`` the edge index the half-edge at position ``p`` came
    from, for gathering per-edge weights.
    """
    owners = np.concatenate([lo, hi])
    nbrs = np.concatenate([hi, lo])
    order = np.argsort(owners * np.int64(n) + nbrs)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners, minlength=n), out=indptr[1:])
    return indptr, nbrs[order], order % max(lo.size, 1)


def upper_triangle(graph: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(us, vs, positions)`` of every edge with ``u < v``, in ``edges()`` order.

    ``positions`` are the CSR positions of the edges, for gathering
    weights.
    """
    indptr, indices = csr_views(graph)
    owners = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(indptr))
    positions = np.flatnonzero(owners < indices)
    return owners[positions], indices[positions], positions


def _node_keys(n: int, salt: int) -> np.ndarray:
    """splitmix64 of ``v + salt`` for every node ``v``, as ``uint64``."""
    z = np.arange(n, dtype=np.uint64) + np.uint64(salt)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _row_sums(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-row sums of ``values`` (aligned with the CSR), modulo 2⁶⁴."""
    sums = np.zeros(values.size + 1, dtype=np.uint64)
    np.cumsum(values, out=sums[1:])
    return sums[indptr[1:]] - sums[indptr[:-1]]


def _closed_rows(
    indptr: np.ndarray, indices: np.ndarray, owners: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the closed neighbourhoods ``N(v) ∪ {v}``, rows ascending."""
    n = indptr.size - 1
    above = indices > owners
    out = np.empty(indices.size + n, dtype=np.int64)
    out[np.arange(indices.size) + owners + above] = indices
    below = np.bincount(owners[~above], minlength=n)
    out[indptr[:-1] + np.arange(n) + below] = np.arange(n)
    return indptr + np.arange(n + 1), out


def _runs(*keys: np.ndarray) -> np.ndarray:
    """True where a run of equal ``keys`` tuples starts (input sorted)."""
    first = np.ones(keys[0].size, dtype=bool)
    for key in keys:
        first[1:] &= key[1:] == key[:-1]
    first[1:] = ~first[1:]
    return first


def _shared(group: np.ndarray) -> np.ndarray:
    """Mask of the entries whose ``group`` (sorted) has another member."""
    if not group.size:
        return np.zeros(0, dtype=bool)
    start = _runs(group)
    ids = np.cumsum(start) - 1
    return np.bincount(ids)[ids] > 1


def _exact_classes(
    indptr: np.ndarray,
    indices: np.ndarray,
    nodes: np.ndarray,
    hashes: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Classes of identical rows among ``nodes`` (ascending).

    Returns ``(members, keepers)``: every node of a class with at least
    two members, and the class's smallest node.  Rows are grouped by
    degree and ``hashes``, then checked exactly against the smallest
    remaining node of their group; non-matching rows go round again.
    """
    degree = indptr[nodes + 1] - indptr[nodes]
    order = np.lexsort((hashes[1], hashes[0], degree))  # stable: ids ascend
    nodes = nodes[order]
    group = np.cumsum(_runs(degree[order], hashes[0][order], hashes[1][order]))
    multi = _shared(group)
    nodes, group = nodes[multi], group[multi]
    members: list[np.ndarray] = []
    keepers: list[np.ndarray] = []
    while nodes.size:
        start = _runs(group)
        keeper = nodes[start][np.cumsum(start) - 1]
        lens = indptr[nodes + 1] - indptr[nodes]
        mine = indices[expand_runs(indptr[nodes], lens)]
        theirs = indices[expand_runs(indptr[keeper], lens)]
        differs = np.zeros(nodes.size, dtype=bool)
        differs[np.repeat(np.arange(nodes.size), lens)[mine != theirs]] = True
        members.append(nodes[~differs])
        keepers.append(keeper[~differs])
        nodes, group = nodes[differs], group[differs]
        multi = _shared(group)
        nodes, group = nodes[multi], group[multi]
    if not members:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    members_all = np.concatenate(members)
    keepers_all = np.concatenate(keepers)
    # A keeper nobody else matched is a singleton class.
    size = np.bincount(keepers_all, minlength=indptr.size - 1)
    multi = size[keepers_all] > 1
    return members_all[multi], keepers_all[multi]


def eliminate_twins(graph: Graph) -> tuple[Graph, list[int], list[int], TwinKinds]:
    """The twin reduction of an unweighted graph whose weights are all int 1.

    Returns ``(reduced, representative, originals, twin_kind)`` exactly
    as the scalar path computes them: false twins (equal non-empty open
    neighbourhoods) fold first, then true twins (equal closed
    neighbourhoods) whose class has no false twin, each class into its
    smallest node.
    """
    n = graph.n
    indptr, indices = csr_views(graph)
    owners = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    keys = [_node_keys(n, salt) for salt in SALTS]
    open_sums = [_row_sums(indptr, key[indices]) for key in keys]

    nodes = np.flatnonzero(np.diff(indptr))  # empty rows never fold
    false_members, false_keepers = _exact_classes(
        indptr, indices, nodes, tuple(s[nodes] for s in open_sums)
    )
    closed_indptr, closed_indices = _closed_rows(indptr, indices, owners)
    true_members, true_keepers = _exact_classes(
        closed_indptr,
        closed_indices,
        np.arange(n, dtype=np.int64),
        tuple(s + key for s, key in zip(open_sums, keys)),
    )

    representative = np.arange(n, dtype=np.int64)
    kind = np.zeros(n, dtype=np.uint8)
    representative[false_members] = false_keepers
    kind[false_members] = _FALSE
    blocked = np.zeros(n, dtype=bool)
    blocked[true_keepers[kind[true_members] != 0]] = True
    fold = ~blocked[true_keepers]
    representative[true_members[fold]] = true_keepers[fold]
    kind[true_members[fold]] = _TRUE

    kept = representative == np.arange(n)
    originals = np.flatnonzero(kept)
    k = int(originals.size)
    compact = np.cumsum(kept) - 1
    final = compact[representative]
    us, vs, _ = upper_triangle(graph)
    ru, rv = final[us], final[vs]
    cross = ru != rv
    lo = np.minimum(ru[cross], rv[cross])
    hi = np.maximum(ru[cross], rv[cross])
    edge_keys = np.unique(lo * np.int64(k) + hi)
    lo, hi = np.divmod(edge_keys, np.int64(max(k, 1)))
    reduced_indptr, reduced_indices, _ = symmetric_csr(k, lo, hi)
    reduced = Graph._from_csr(k, reduced_indptr, reduced_indices, None, unweighted=True)
    codes = array("B")
    codes.frombytes(kind.tobytes())
    return reduced, final.tolist(), originals.tolist(), TwinKinds(codes)
