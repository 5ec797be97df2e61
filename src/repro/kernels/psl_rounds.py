"""NumPy-vectorized PSL round propagation (construction kernel).

This is the construction-side counterpart of the query kernels: one PSL
round — candidate generation from the neighbors' previous-round hubs,
pruning against the committed labels, and the synchronous commit — as a
handful of array operations over CSR state instead of per-vertex dict
scans.

The state is three parallel structures, all keyed by the composite
``owner * n + hub_rank`` (``int64``; owner-major, hub-minor, so the
concatenation of per-node rank-sorted labels is globally sorted):

* ``lab_keys`` / ``lab_dists`` — every committed label entry, sorted;
* ``lab_indptr`` — CSR offsets of each owner's run inside those arrays;
* the frontier (``fr_indptr`` / ``fr_hubs``) — hubs committed in the
  previous round, per node.

Each round

1. gathers, per directed edge ``(v, u)``, the frontier hubs of ``u``
   (a variable-run gather: ``repeat`` + ``cumsum`` offsets),
2. keeps candidates ranked above their owner and deduplicates them with
   a sort + adjacent-difference mask over composite keys,
3. drops candidates already committed (``np.searchsorted`` membership
   against ``lab_keys``),
4. runs the pruning test smaller-side, mirroring
   :func:`repro.labeling.psl._map_query`'s iterate-the-smaller-map
   rule: each candidate ``(v, h)`` expands whichever of ``L(v)`` /
   ``L(w_h)`` is shorter while the other side sits scattered in a dense
   rank-indexed buffer.  Candidates are split into two batches by which
   side is smaller, each batch is grouped so candidates sharing a
   scatter node are contiguous, and the expansion streams through
   fixed-size scratch buffers (``_Scratch``) in bounded chunks — one
   ``np.minimum.reduceat`` per chunk reduces each run.  A candidate
   survives when the best 2-hop cover through already-committed labels
   is longer than the current level.  The chunking matters as much as
   the work split: a single flat expansion materializes hundreds of
   millions of elements at the peak round, and freshly faulted pages
   cost more than the arithmetic,
5. commits all survivors at once (sorted merge into the label arrays)
   and charges the memory budget in ascending-owner order, mirroring
   the serial commit's charge sequence.

Every round commits the identical label set the pure-Python rounds
commit — the level-synchronous semantics only ever consult labels of
strictly earlier rounds, which both paths enforce — so the resulting
index is byte-for-byte the serial one (``index_fingerprint()``-equal,
pinned by the differential suite).
"""

from __future__ import annotations

import time

import numpy as np

from repro.graphs.graph import Graph
from repro.labeling.base import MemoryBudget
from repro.obs.tracing import span as obs_span, tracing_enabled

#: Dense-buffer sentinel: far above any achievable level sum, far below
#: int64 overflow when two of them are added.
_INF = np.int64(1) << np.int64(50)

#: Pruning-test chunk size, in expanded label entries.  Each chunk
#: streams through three reused ``_Scratch`` buffers of this many
#: int64s; keeping them warm (instead of faulting fresh multi-GB
#: expansions every round) is what makes the peak rounds affordable.
_PRUNE_CHUNK = 1 << 19


class _Scratch:
    """Reusable chunk buffers for the pruning-test expansion."""

    __slots__ = ("cap", "idx", "z_ranks", "sums")

    def __init__(self) -> None:
        self.cap = 0
        self.ensure(_PRUNE_CHUNK)

    def ensure(self, max_run: int) -> int:
        """Grow to hold ``max_run`` elements; returns the chunk capacity.

        A chunk always admits at least one candidate, so the buffers
        must fit the longest single label run even when it exceeds the
        nominal chunk size.
        """
        need = max(_PRUNE_CHUNK, int(max_run))
        if need > self.cap:
            self.cap = need
            self.idx = np.empty(need, dtype=np.int64)
            self.z_ranks = np.empty(need, dtype=np.int64)
            self.sums = np.empty(need, dtype=np.int64)
        return self.cap


def build_csr_adjacency(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency of ``graph`` — ``(adj_indptr, adj)``, both int64.

    One row per node, every edge stored in both directions.  The row of
    destination vertex ``v`` spans ``adj[adj_indptr[v]:adj_indptr[v+1]]``,
    so any contiguous destination-vertex range maps to one contiguous
    edge slice — the property the shared-memory fan-out partitions on.
    """
    n = graph.n
    degrees = np.fromiter(
        (len(graph.neighbor_ids(v)) for v in range(n)), dtype=np.int64, count=n
    )
    adj_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=adj_indptr[1:])
    adj = np.fromiter(
        (u for v in range(n) for u in graph.neighbor_ids(v)),
        dtype=np.int64,
        count=int(adj_indptr[-1]),
    )
    return adj_indptr, adj


def edge_owners(adj_indptr: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Destination vertex per edge of rows ``lo .. hi-1`` (absolute ids)."""
    counts = np.diff(adj_indptr[lo : hi + 1])
    return np.repeat(np.arange(lo, hi, dtype=np.int64), counts)


def init_label_state(
    rank_arr: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Level-0 state: every node's self-entry, committed and on the frontier.

    Returns ``(lab_keys, lab_dists, lab_indptr, fr_indptr, fr_hubs)``.
    """
    n = rank_arr.size
    n64 = np.int64(n)
    lab_keys = np.arange(n, dtype=np.int64) * n64 + rank_arr
    lab_dists = np.zeros(n, dtype=np.int64)
    lab_indptr = np.arange(n + 1, dtype=np.int64)
    fr_indptr = np.arange(n + 1, dtype=np.int64)
    fr_hubs = rank_arr.copy()
    return lab_keys, lab_dists, lab_indptr, fr_indptr, fr_hubs


def commit_level(
    n: int,
    lab_keys: np.ndarray,
    lab_dists: np.ndarray,
    accepted_keys: np.ndarray,
    level: int,
    *,
    budget: MemoryBudget,
    budget_exempt: frozenset[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Synchronous commit: merge one round's accepted keys into the labels.

    ``accepted_keys`` must be the sorted accepted set of the whole
    vertex range — either one in-process round's output or the
    rank-order concatenation of per-range worker outputs (ascending
    contiguous ranges concatenate to the identical sorted array, which
    is the determinism argument of :mod:`repro.parallel.shm`).  Charges
    ``budget`` in the serial commit's ascending-node order and returns
    the new ``(lab_keys, lab_dists, lab_indptr, fr_indptr, fr_hubs)``.
    """
    n64 = np.int64(n)
    merged_keys = np.concatenate([lab_keys, accepted_keys])
    merged_dists = np.concatenate(
        [lab_dists, np.full(accepted_keys.size, level, dtype=np.int64)]
    )
    sort_idx = np.argsort(merged_keys, kind="stable")
    lab_keys = merged_keys[sort_idx]
    lab_dists = merged_dists[sort_idx]
    owner_counts = np.bincount(lab_keys // n64, minlength=n)
    lab_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(owner_counts, out=lab_indptr[1:])

    # Next round's frontier is exactly what was committed now.
    accepted_owners = accepted_keys // n64
    fr_hubs = accepted_keys % n64
    fr_counts = np.bincount(accepted_owners, minlength=n)
    fr_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(fr_counts, out=fr_indptr[1:])

    # Budget accounting, in the serial commit's ascending-node order.
    charge_owners, charge_counts = np.unique(accepted_owners, return_counts=True)
    for v, count in zip(charge_owners.tolist(), charge_counts.tolist()):
        if v not in budget_exempt:
            budget.charge(count)
    return lab_keys, lab_dists, lab_indptr, fr_indptr, fr_hubs


def labels_to_lists(
    n: int,
    lab_keys: np.ndarray,
    lab_dists: np.ndarray,
    lab_indptr: np.ndarray,
) -> tuple[list[list[int]], list[list[int]]]:
    """Unpack the committed CSR state into per-node Python lists."""
    hubs = (lab_keys % np.int64(n)).tolist()
    dists = lab_dists.tolist()
    indptr = lab_indptr.tolist()
    hub_ranks = [hubs[indptr[v] : indptr[v + 1]] for v in range(n)]
    hub_dists = [dists[indptr[v] : indptr[v + 1]] for v in range(n)]
    return hub_ranks, hub_dists


def record_round_stats(
    stats_out: dict | None, level: int, kernel_s: float, merge_s: float, additions: int
) -> None:
    """Accumulate one round's kernel/merge time split into ``stats_out``.

    Shared by the in-process loop and the shared-memory fan-out so
    ``BENCH_scale.json`` reports the same shape either way; ``None``
    disables collection (the production default).
    """
    if stats_out is None:
        return
    stats_out["rounds"] = level
    stats_out["kernel_s"] = stats_out.get("kernel_s", 0.0) + kernel_s
    stats_out["merge_s"] = stats_out.get("merge_s", 0.0) + merge_s
    stats_out.setdefault("levels", []).append(
        {
            "level": level,
            "kernel_s": round(kernel_s, 4),
            "merge_s": round(merge_s, 4),
            "additions": additions,
        }
    )


def run_numpy_rounds(
    graph: Graph,
    rank: list[int],
    order: list[int],
    *,
    budget: MemoryBudget,
    budget_exempt: frozenset[int],
    stats_out: dict | None = None,
) -> tuple[list[list[int]], list[list[int]], int]:
    """Run every PSL round vectorized; returns the finished labels.

    Returns ``(hub_ranks, hub_dists, rounds)`` where ``hub_ranks[v]`` /
    ``hub_dists[v]`` are ``v``'s committed label entries in ascending
    rank order (plain Python ints, ready for
    :meth:`~repro.labeling.hub_labels.HubLabeling.append_entry`) and
    ``rounds`` is the number of levels evaluated, matching the serial
    loop's count (the final, empty level included).

    The initial self-labels must already be charged to ``budget`` by the
    caller (both construction paths share that init).  ``stats_out``
    (optional dict) collects the per-round kernel/merge time split — see
    :func:`record_round_stats`.
    """
    lab_keys, lab_dists, lab_indptr, level = run_numpy_rounds_csr(
        graph,
        rank,
        order,
        budget=budget,
        budget_exempt=budget_exempt,
        stats_out=stats_out,
    )
    hub_ranks, hub_dists = labels_to_lists(graph.n, lab_keys, lab_dists, lab_indptr)
    return hub_ranks, hub_dists, level


def run_numpy_rounds_csr(
    graph: Graph,
    rank: list[int],
    order: list[int],
    *,
    budget: MemoryBudget,
    budget_exempt: frozenset[int],
    stats_out: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Like :func:`run_numpy_rounds` but returns the raw CSR state.

    ``(lab_keys, lab_dists, lab_indptr, rounds)`` — composite keys
    sorted owner-major, so ``lab_keys % n`` is each node's ascending
    hub-rank run.  The flat backend adopts these arrays directly
    (:meth:`~repro.storage.flat_labels.FlatLabelStore.adopt_numpy_csr`)
    without a per-entry Python loop.
    """
    n = graph.n
    n64 = np.int64(n)

    adj_indptr, adj = build_csr_adjacency(graph)
    edge_owner = edge_owners(adj_indptr, 0, n)

    rank_arr = np.asarray(rank, dtype=np.int64)
    order_arr = np.asarray(order, dtype=np.int64)
    lab_keys, lab_dists, lab_indptr, fr_indptr, fr_hubs = init_label_state(rank_arr)

    dist_buf = np.full(n, _INF, dtype=np.int64)
    scratch = _Scratch()

    level = 0
    while True:
        level += 1
        with obs_span("labeling.psl.level", level=level) as level_span:
            kernel_started = time.perf_counter()
            accepted_keys = _run_round(
                n64,
                adj,
                edge_owner,
                rank_arr,
                order_arr,
                lab_keys,
                lab_dists,
                lab_indptr,
                fr_indptr,
                fr_hubs,
                dist_buf,
                scratch,
                level,
            )
            kernel_seconds = time.perf_counter() - kernel_started
            if tracing_enabled():
                level_span.set(additions=int(accepted_keys.size))
        if accepted_keys.size == 0:
            record_round_stats(stats_out, level, kernel_seconds, 0.0, 0)
            break

        merge_started = time.perf_counter()
        lab_keys, lab_dists, lab_indptr, fr_indptr, fr_hubs = commit_level(
            n,
            lab_keys,
            lab_dists,
            accepted_keys,
            level,
            budget=budget,
            budget_exempt=budget_exempt,
        )
        record_round_stats(
            stats_out,
            level,
            kernel_seconds,
            time.perf_counter() - merge_started,
            int(accepted_keys.size),
        )

    return lab_keys, lab_dists, lab_indptr, level


def expand_runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices of the concatenation of ``counts[i]``-long runs at ``starts[i]``."""
    offsets = np.cumsum(counts) - counts
    total = int(offsets[-1] + counts[-1]) if counts.size else 0
    return np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)


def _run_round(
    n64: np.int64,
    adj: np.ndarray,
    edge_owner: np.ndarray,
    rank_arr: np.ndarray,
    order_arr: np.ndarray,
    lab_keys: np.ndarray,
    lab_dists: np.ndarray,
    lab_indptr: np.ndarray,
    fr_indptr: np.ndarray,
    fr_hubs: np.ndarray,
    dist_buf: np.ndarray,
    scratch: _Scratch,
    level: int,
) -> np.ndarray:
    """One round's gather + prune; returns the accepted composite keys."""
    # 1. Candidate gather: frontier hubs of every neighbor.
    fr_counts = np.diff(fr_indptr)
    edge_counts = fr_counts[adj]
    if int(edge_counts.sum()) == 0:
        return np.empty(0, dtype=np.int64)
    nonzero = edge_counts > 0
    indices = expand_runs(fr_indptr[adj[nonzero]], edge_counts[nonzero])
    hubs = fr_hubs[indices]
    owners = np.repeat(edge_owner[nonzero], edge_counts[nonzero])

    # 2. Rank filter + dedup (sort + adjacent-difference mask; cheaper
    # than np.unique's hashing on these already-dense keys).
    keep = hubs < rank_arr[owners]
    if not keep.any():
        return np.empty(0, dtype=np.int64)
    keys = owners[keep] * n64 + hubs[keep]
    keys.sort(kind="stable")
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]

    # 3. Drop candidates already committed at a smaller level.
    pos = np.searchsorted(lab_keys, keys)
    pos_clipped = np.minimum(pos, lab_keys.size - 1)
    keys = keys[lab_keys[pos_clipped] != keys]
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    owners = keys // n64
    hubs = keys % n64

    # 4. Pruning test, smaller-side (the vectorized _map_query): each
    # candidate (v, h) expands the shorter of L(v) / L(w) and looks the
    # other side up in the dense rank-indexed buffer.  Split by which
    # side is shorter; batch A groups by owner (candidates are already
    # owner-sorted — sorted composite keys are owner-major), batch B
    # re-sorts by hub so candidates sharing a hub are contiguous.
    w_nodes = order_arr[hubs]
    lab_counts = np.diff(lab_indptr)
    own_runs = lab_counts[owners]
    hub_runs = lab_counts[w_nodes]
    hub_smaller = hub_runs <= own_runs
    accept = np.empty(keys.size, dtype=bool)

    sel = np.flatnonzero(hub_smaller)
    if sel.size:
        _prune_batch(
            lab_keys,
            lab_dists,
            lab_indptr,
            dist_buf,
            scratch,
            n64,
            level,
            expand_nodes=w_nodes[sel],
            group_nodes=owners[sel],
            accept=accept,
            accept_idx=sel,
        )
    sel = np.flatnonzero(~hub_smaller)
    if sel.size:
        by_hub = sel[np.argsort(hubs[sel], kind="stable")]
        _prune_batch(
            lab_keys,
            lab_dists,
            lab_indptr,
            dist_buf,
            scratch,
            n64,
            level,
            expand_nodes=owners[by_hub],
            group_nodes=w_nodes[by_hub],
            accept=accept,
            accept_idx=by_hub,
        )
    return keys[accept]


def _prune_batch(
    lab_keys: np.ndarray,
    lab_dists: np.ndarray,
    lab_indptr: np.ndarray,
    dist_buf: np.ndarray,
    scratch: _Scratch,
    n64: np.int64,
    level: int,
    *,
    expand_nodes: np.ndarray,
    group_nodes: np.ndarray,
    accept: np.ndarray,
    accept_idx: np.ndarray,
) -> None:
    """Pruning test for one batch of candidates.

    ``expand_nodes[i]``'s label run is expanded, ``group_nodes[i]``'s
    label sits in the dense buffer; candidates must arrive with equal
    ``group_nodes`` contiguous.  Writes ``accept[accept_idx[i]]`` (True
    = survives, no 2-hop cover at <= level).  Work is streamed through
    ``scratch`` in bounded chunks — candidate ``i``'s expansion is the
    contiguous committed run ``lab_indptr[e]:lab_indptr[e+1]``, so each
    chunk's gather indices are a grouped arange built in-place.
    """
    m = expand_nodes.size
    starts = lab_indptr[expand_nodes]
    runs = lab_indptr[expand_nodes + 1] - starts
    bounds = np.empty(m + 1, dtype=np.int64)
    bounds[0] = 0
    np.cumsum(runs, out=bounds[1:])
    cap = scratch.ensure(int(runs.max()))

    a = 0
    while a < m:
        b = int(np.searchsorted(bounds, bounds[a] + cap, side="right")) - 1
        if b <= a:
            b = a + 1  # one oversized run; scratch already fits it
        tot = int(bounds[b] - bounds[a])
        offs = bounds[a:b] - bounds[a]

        # Grouped arange: idx = concat(arange(starts[i], starts[i]+runs[i])).
        idx = scratch.idx[:tot]
        idx[:] = 1
        idx[0] = starts[a]
        if b - a > 1:
            idx[offs[1:]] = starts[a + 1 : b] - (starts[a : b - 1] + runs[a : b - 1]) + 1
        np.cumsum(idx, out=idx)

        z_ranks = scratch.z_ranks[:tot]
        np.take(lab_keys, idx, out=z_ranks)
        np.remainder(z_ranks, n64, out=z_ranks)
        sums = scratch.sums[:tot]
        np.take(lab_dists, idx, out=sums)

        # Per scatter-node segment: load its label into the dense
        # buffer, add the buffer lookups in place, then clear.
        chunk_groups = group_nodes[a:b]
        g_starts = np.flatnonzero(
            np.concatenate([[True], chunk_groups[1:] != chunk_groups[:-1]])
        )
        elem_bounds = np.concatenate([offs[g_starts], [tot]]).tolist()
        for g, u in enumerate(chunk_groups[g_starts].tolist()):
            u_lo = lab_indptr[u]
            u_hi = lab_indptr[u + 1]
            u_ranks = lab_keys[u_lo:u_hi] % n64
            dist_buf[u_ranks] = lab_dists[u_lo:u_hi]
            segment = slice(elem_bounds[g], elem_bounds[g + 1])
            sums[segment] += dist_buf[z_ranks[segment]]
            dist_buf[u_ranks] = _INF

        # Runs are never empty (every label holds its self-entry), so
        # offs is strictly increasing and reduceat is exact.
        best = np.minimum.reduceat(sums, offs)
        accept[accept_idx[a:b]] = best > level
        a = b
