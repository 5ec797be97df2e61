"""Vectorized CT-Index query kernels: the 4-case dispatch as array ops.

:class:`CTKernelState` is built lazily by
:class:`~repro.core.ct_index.CTIndex` when the numpy kernel resolves;
it holds the cached NumPy views of both label halves (core CSR 2-hop
labels, forest CSR tree labels) plus a per-position node-id array, and
answers the reduced-graph cases:

* **Case 1** (core-core) — one :func:`~repro.kernels.label_kernels.
  intersect_runs_min` over the two core runs;
* **Case 2** (tree-core) — like the scalar path, one short run
  intersection per reachable interface member (interfaces are small by
  construction — the bandwidth bounds them — so a member loop beats
  materializing an extension array);
* **Case 3** (cross-tree) — intersect *one* side's extension array
  (Lemma 9) against the other side's reachable interface runs.
  Algebraically identical to the scalar ``ext ∩ ext``: both minimize
  ``du + d(u, h) + d(h, v) + dv`` over the same (member, hub, member)
  operand set, and the arithmetic is exact for the integer distances
  every builder produces — but one whole extension computation per
  cold pair is skipped, and a warm LRU entry on either side is used as
  the extension side;
* **Case 4** (same-tree) — the better of the vectorized LCA-bag 2-hop
  (``d2``, one ``searchsorted`` per endpoint over the bag) and the
  extension intersection (``d4``).

The extension operation itself — the O(d)-way union that dominated the
scalar profile — becomes concatenate + stable argsort + segmented
``np.minimum.reduceat`` (with a no-sort fast path for the common
single-reachable-member interface), and its results (rank/dist array
pairs) live in the index's existing extension LRU.

Batch shapes reuse per-source state the way the scalar
``distances_from`` shares ``ext_s``, then go further: all core targets
of one source are answered by scattering the source's run (or extension
array) into one dense rank-indexed vector and min-reducing every target
run against it in a single ``reduceat`` pass.

Query-case counters are maintained exactly like the scalar path;
core-probe accounting follows the scalar semantics per case — Case 2
probes once per reachable interface member (as scalar does), Cases 3/4
probe once per reachable member whenever interface core runs are
scanned (the member loop and each extension computation), so a warm
extension LRU skips exactly the probes the scalar path's warm cache
skips.

Imports NumPy at module level — load only behind
:func:`repro.kernels.resolve_kernel`.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.graphs.graph import INF, Weight

_INF = float("inf")
from repro.kernels.label_kernels import (
    NumpyLabelKernel,
    intersect_runs_min,
    weight_from_float,
    weights_from_floats,
)
from repro.kernels.views import tree_views

#: Shared empty extension array pair (a position whose tree cannot
#: reach its interface).
_EMPTY_RANKS = np.empty(0, dtype=np.int64)
_EMPTY_DISTS = np.empty(0, dtype=np.float64)


class CTKernelState:
    """NumPy kernel state for one flat-backend :class:`CTIndex`."""

    name = "numpy"

    def __init__(self, index) -> None:
        self.index = index
        self.core = NumpyLabelKernel(index.core_index.labels)
        tree = tree_views(index.tree_index.labels)
        self._tree_offsets = tree.offsets
        self._tree_targets = tree.targets
        self._tree_dists = tree.dists_inf
        decomposition = index.decomposition
        order = decomposition.elimination.order
        self._node_at = np.asarray(getattr(order, "raw", order), dtype=np.int64)
        # Plain-python copies of the tree CSR arrays for the scalar
        # member loops: bisect over a list compares unboxed ints, which
        # beats both numpy-scalar indexing and the ``array.array``
        # store's boxing on the point-query hot path.
        self._tree_bounds = tree.offsets.tolist()
        self._tree_targets_list = tree.targets.tolist()
        self._tree_dists_list = tree.dists_inf.tolist()
        self._node_at_list = self._node_at.tolist()
        # Per-query dispatch state, bound once (the decomposition and
        # the reduced-to-compact core map are frozen for a built index).
        self._decomposition = decomposition
        self._position = decomposition.position
        self._core_compact = index._core_compact
        #: Whether both label halves hold integer distances — decides
        #: the answer type of the mixed (tree + core) cases.
        self.integral = self.core._integral and tree.integral

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------

    def tree_distance(self, pos: int, target: int) -> float:
        """Scalar δ^T from ``pos`` to one node id (float, ``inf`` absent).

        Same contract as the tree index's ``local_distance`` (0 for the
        position's own node) but answered from the kernel's plain-list
        copies of the CSR arrays, so the member loops of Cases 2/3 pay
        one C-level bisect instead of two store method calls.
        """
        targets = self._tree_targets_list
        start, stop = self._tree_bounds[pos], self._tree_bounds[pos + 1]
        i = bisect_left(targets, target, start, stop)
        if i < stop and targets[i] == target:
            return self._tree_dists_list[i]
        return 0.0 if self._node_at_list[pos] == target else _INF

    def tree_lookup(self, pos: int, targets: np.ndarray) -> np.ndarray:
        """δ^T from ``pos`` to each target node id (float64, inf absent)."""
        start, stop = self._tree_offsets[pos], self._tree_offsets[pos + 1]
        run_targets = self._tree_targets[start:stop]
        run_dists = self._tree_dists[start:stop]
        if len(run_targets):
            slots = run_targets.searchsorted(targets)
            # mode="clip" clamps past-the-end slots onto the last entry,
            # which the equality test rejects (those targets exceed
            # every stored id).
            found = run_targets.take(slots, mode="clip") == targets
            out = np.where(found, run_dists.take(slots, mode="clip"), np.inf)
        else:
            out = np.full(len(targets), np.inf)
        out[targets == self._node_at[pos]] = 0.0
        return out

    def extension_arrays(self, pos: int) -> tuple[np.ndarray, np.ndarray]:
        """Lemma 9 extension set of ``pos`` as parallel sorted arrays.

        Returns ``(hub_ranks ascending-unique, extended_dists)`` — the
        array form of the scalar path's ``rank -> dist`` dict.  Bumps
        ``core_probes`` once per reachable interface member, matching
        ``_compute_extended_labels``.  Unreachable interface members
        contribute nothing (their runs are skipped outright), and the
        common small-interface case — exactly one reachable member —
        returns the member's shifted run with no sort at all: a single
        core run is already ascending-unique by store invariant.
        """
        index = self.index
        interface = self._decomposition.interface[self._decomposition.root[pos]]
        runs_ranks: list[np.ndarray] = []
        runs_dists: list[np.ndarray] = []
        tree_distance = self.tree_distance
        for u in interface:
            du = tree_distance(pos, u)
            if du == _INF:
                continue
            index.core_probes += 1
            ranks, dists = self.core.run(self._core_compact[u])
            runs_ranks.append(ranks)
            runs_dists.append(dists + du)
        if not runs_ranks:
            return _EMPTY_RANKS, _EMPTY_DISTS
        if len(runs_ranks) == 1:
            return runs_ranks[0], runs_dists[0]
        ranks = np.concatenate(runs_ranks)
        dists = np.concatenate(runs_dists)
        order = np.argsort(ranks, kind="stable")
        ranks = ranks[order]
        dists = dists[order]
        firsts = np.flatnonzero(
            np.concatenate(([True], ranks[1:] != ranks[:-1]))
        )
        return ranks[firsts], np.minimum.reduceat(dists, firsts)

    def extension_entry(self, pos: int) -> tuple[np.ndarray, np.ndarray]:
        """Extension arrays of ``pos`` through the index's LRU."""
        return self.index._extension_entry(pos, self.extension_arrays)

    def _dense_extension(self, pos: int) -> np.ndarray:
        """Extension set scattered into a core-rank-indexed float64 array."""
        ranks, dists = self.extension_entry(pos)
        dense = np.full(self.core._n, np.inf)
        dense[ranks] = dists
        return dense

    # ------------------------------------------------------------------
    # Point cases (reduced-graph node ids, s != t, distinct classes)
    # ------------------------------------------------------------------

    def reduced_distance(self, s: int, t: int) -> Weight:
        """Numpy twin of ``CTIndex._reduced_distance`` (same counters)."""
        index = self.index
        position = self._position
        pos_s = position[s]
        pos_t = position[t]
        if pos_s is None and pos_t is None:
            index.case_counts["case1"] += 1
            index.core_probes += 1
            compact = self._core_compact
            return self.core.query(compact[s], compact[t])
        if pos_s is None:
            s, t = t, s
            pos_s, pos_t = pos_t, pos_s
        if pos_t is None:
            index.case_counts["case2"] += 1
            return self.tree_to_core(pos_s, t)
        if self._decomposition.same_tree(pos_s, pos_t):
            index.case_counts["case4"] += 1
            return self.same_tree(pos_s, pos_t)
        index.case_counts["case3"] += 1
        return self.cross_tree(pos_s, pos_t)

    def tree_to_core(self, pos_s: int, t: int) -> Weight:
        """Case 2 exactly like the scalar path (``t`` is a reduced core id).

        One short run intersection per reachable interface member — no
        extension array is materialized, mirroring the scalar
        ``_tree_to_core`` (and its per-member ``core_probes``
        accounting) rather than the extension-based Cases 3/4.
        """
        index = self.index
        interface = self._decomposition.interface[self._decomposition.root[pos_s]]
        compact_t = self._core_compact[t]
        ranks_t, dists_t = self.core.run(compact_t)
        tree_distance = self.tree_distance
        best = np.inf
        for u in interface:
            du = tree_distance(pos_s, u)
            if du == _INF:
                continue
            index.core_probes += 1
            compact_u = self._core_compact[u]
            if compact_u == compact_t:
                total = du
            else:
                ranks_u, dists_u = self.core.run(compact_u)
                total = du + intersect_runs_min(
                    ranks_u, dists_u, ranks_t, dists_t
                )
            if total < best:
                best = total
        return weight_from_float(best, self.integral)

    def cross_tree(self, pos_s: int, pos_t: int) -> Weight:
        """Case 3 through one extension array instead of two.

        ``ext_s ∩ ext_t`` and ``min_u (δ^T(t,u) + (ext_s ∩ run(u)))``
        minimize over exactly the same ``du + d(u,h) + d(h,·)`` operand
        set, so intersecting the *other* side's reachable interface
        runs directly skips one whole extension computation per cold
        pair.  The cached side (when exactly one is resident in the
        extension LRU) is used as the extension so warm entries keep
        paying off; probes are bumped per reachable member on both
        sides, like the scalar path's two cold extension computes.
        """
        index = self.index
        cache = index._extension_cache
        if pos_s not in cache and pos_t in cache:
            pos_s, pos_t = pos_t, pos_s
        ranks_s, dists_s = self.extension_entry(pos_s)
        interface = self._decomposition.interface[self._decomposition.root[pos_t]]
        tree_distance = self.tree_distance
        best = np.inf
        for u in interface:
            du = tree_distance(pos_t, u)
            if du == _INF:
                continue
            index.core_probes += 1
            ranks_u, dists_u = self.core.run(self._core_compact[u])
            total = du + intersect_runs_min(
                ranks_s, dists_s, ranks_u, dists_u
            )
            if total < best:
                best = total
        return weight_from_float(best, self.integral)

    def same_tree(self, pos_s: int, pos_t: int) -> Weight:
        """Case 4: vectorized LCA-bag 2-hop vs extension intersection."""
        decomposition = self._decomposition
        meet = decomposition.lca(pos_s, pos_t)
        bag = np.asarray(decomposition.bag_members(meet), dtype=np.int64)
        if len(bag):
            d2 = (self.tree_lookup(pos_s, bag) + self.tree_lookup(pos_t, bag)).min()
        else:  # pragma: no cover - bags are never empty in a valid index
            d2 = np.inf
        ranks_s, dists_s = self.extension_entry(pos_s)
        ranks_t, dists_t = self.extension_entry(pos_t)
        d4 = intersect_runs_min(ranks_s, dists_s, ranks_t, dists_t)
        return weight_from_float(min(d2, d4), self.integral)

    # ------------------------------------------------------------------
    # Batch shapes (original-graph node ids, pre-validated bounds)
    # ------------------------------------------------------------------

    def distances_from(self, s: int, targets: list[int]) -> list[Weight]:
        """One-to-many: one dense scatter per source, grouped reductions."""
        index = self.index
        reduction = index.reduction
        position = index.decomposition.position
        rs = reduction.representative[s]
        pos_s = position[rs]
        results: list[Weight] = [0] * len(targets)
        core_slots: list[int] = []
        core_nodes: list[int] = []
        forest_slots: list[int] = []
        forest_positions: list[int] = []
        for i, t in enumerate(targets):
            if t == s:
                continue
            rt = reduction.representative[t]
            if rt == rs:
                results[i] = reduction.class_distance(s, t)
                continue
            pos_t = position[rt]
            if pos_t is None:
                core_slots.append(i)
                core_nodes.append(rt)
            else:
                forest_slots.append(i)
                forest_positions.append(pos_t)

        if core_slots:
            compact = index._core_compact
            compact_targets = [compact[rt] for rt in core_nodes]
            if pos_s is None:
                # Case 1 en masse: source core run scattered once.
                index.case_counts["case1"] += len(core_slots)
                index.core_probes += len(core_slots)
                dense = self.core.dense_run(compact[rs])
                integral = self.core._integral
            else:
                # Case 2 en masse: extension array scattered once.
                index.case_counts["case2"] += len(core_slots)
                dense = self._dense_extension(pos_s)
                integral = self.integral
            mins = self.core.min_against_dense(dense, compact_targets)
            for slot, value in zip(core_slots, weights_from_floats(mins, integral)):
                results[slot] = value

        for slot, pos_t in zip(forest_slots, forest_positions):
            if pos_s is None:
                # Core source, forest target: Case 2 with roles swapped.
                index.case_counts["case2"] += 1
                results[slot] = self.tree_to_core(pos_t, rs)
            elif index.decomposition.same_tree(pos_s, pos_t):
                index.case_counts["case4"] += 1
                results[slot] = self.same_tree(pos_s, pos_t)
            else:
                index.case_counts["case3"] += 1
                results[slot] = self.cross_tree(pos_s, pos_t)
        return results

    def distances_batch(self, pairs: list[tuple[int, int]]) -> list[Weight]:
        """Pairwise batch, grouped by source to reuse per-source state."""
        results: list[Weight] = [0] * len(pairs)
        by_source: dict[int, list[int]] = {}
        for i, (s, _t) in enumerate(pairs):
            by_source.setdefault(s, []).append(i)
        for s, slots in by_source.items():
            answers = self.distances_from(s, [pairs[i][1] for i in slots])
            for slot, answer in zip(slots, answers):
                results[slot] = answer
        return results


__all__ = ["CTKernelState"]
