"""The CT-Index: the paper's core contribution (Sections 4.4-4.5).

:class:`CTIndex` answers exact distance queries using the four-case
dispatch of Section 4.5:

* **Case 1** — both nodes in the core: one 2-hop query on the core index.
* **Case 2** — one node in a tree: minimize over the ≤ d interface nodes
  of the tree (tree-label hop + core query).
* **Case 3** — nodes in different trees: build both *extended label
  sets* (Lemma 9) and intersect them — O(d) core-label scans instead of
  the naive O(d²) interface product.
* **Case 4** — nodes in the same tree: the better of the 2-hop local
  answer through the LCA bag (``d2``) and the 4-hop answer through the
  core (``d4``, again via extended labels).

Query-case counters and core-probe counters are kept for the benchmark
harness and the Lemma 9 ablation.

Extension label sets depend only on the queried node's forest position
(and the index is immutable once built), so a bounded LRU keyed by
position memoizes them: repeat-heavy workloads hitting hot trees skip
the O(d) core-label scans entirely.  ``extension_cache_size`` bounds the
cache (0 disables it); ``extension_cache_hits``/``_misses`` instrument
it for the serving layer.
"""

from __future__ import annotations

import time
from collections import Counter, OrderedDict

import repro.obs as obs
from repro.exceptions import QueryError
from repro.graphs.graph import INF, Graph, Weight
from repro.kernels import (
    KERNEL_AUTO,
    KERNEL_NUMPY,
    record_kernel_queries,
    resolve_kernel,
)
from repro.obs.tracing import span as obs_span
from repro.graphs.reductions import (
    EquivalenceReduction,
    eliminate_equivalent_nodes,
    reduction_identity,
)
from repro.labeling.base import DistanceIndex, MemoryBudget
from repro.labeling.pll import PrunedLandmarkLabeling
from repro.core.config import BuildConfig, resolve_build_config
from repro.core.construction import TreeIndex, construct

#: Kernel-state sentinel: "not resolved yet" (distinct from None, which
#: means "resolved to the python kernel").
_UNRESOLVED = object()


class CTIndex(DistanceIndex):
    """Core-Tree distance index over a graph.

    Build with :meth:`CTIndex.build` (or :func:`repro.build`)::

        index = CTIndex.build(graph, bandwidth=20)
        index.distance(s, t)

    The ``bandwidth`` is the paper's ``d``: 0 keeps the whole graph in
    the core (CT-0 ≡ PSL+/PLL); larger values move more of the graph
    into the cheap tree-index at a mild query-time cost.
    """

    method_name = "CT"

    #: When the index was loaded with ``mmap=True``, the
    #: :class:`~repro.storage.mapped.MappedSnapshot` whose pages back
    #: the label arrays (``None`` for built or copy-loaded indexes).
    #: Holding the index holds the mapping.
    snapshot_source = None

    def __init__(
        self,
        graph: Graph,
        bandwidth: int,
        reduction: EquivalenceReduction,
        tree_index: TreeIndex,
        core_index: PrunedLandmarkLabeling,
        core_originals: list[int],
        core_compact: dict[int, int],
        extension_cache_size: int = 256,
        kernel: str = KERNEL_AUTO,
    ) -> None:
        self.graph = graph
        self.bandwidth = bandwidth
        self.reduction = reduction
        self.tree_index = tree_index
        self.core_index = core_index
        self._core_originals = core_originals
        self._core_compact = core_compact
        self.method_name = f"CT-{bandwidth}"
        #: Query-case histogram: keys "case1" .. "case4".
        self.case_counts: Counter[str] = Counter()
        #: How many core-label scans the queries performed (Lemma 9 metric).
        self.core_probes = 0
        #: Bound on the per-position extension-label LRU (0 disables it).
        self.extension_cache_size = extension_cache_size
        #: Extension sets served from / missing the LRU.
        self.extension_cache_hits = 0
        self.extension_cache_misses = 0
        self._extension_cache: OrderedDict[int, object] = OrderedDict()
        #: Requested query kernel ("auto" | "numpy" | "python").
        self._kernel_request = kernel
        #: Resolved kernel state: _UNRESOLVED until first use, then a
        #: CTKernelState (numpy) or None (python fallback).
        self._kernel_state: object = _UNRESOLVED

    # ------------------------------------------------------------------
    # Build entry points
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        graph: Graph,
        bandwidth: int | None = None,
        *,
        config: BuildConfig | None = None,
        budget: MemoryBudget | None = None,
        **knobs,
    ) -> "CTIndex":
        """Construct a CT-Index (Algorithm 1).

        Parameters
        ----------
        graph:
            The graph to index.
        bandwidth:
            The paper's ``d``; trades index size against query time.
            Required unless ``config=`` supplies it.
        config:
            Optional :class:`~repro.core.config.BuildConfig` bundling
            every build-shaping knob.
        budget:
            Optional memory budget; exceeding it raises
            :class:`~repro.exceptions.OverMemoryError` mid-build (the
            paper's "OM" outcome).  A runtime object, not configuration.
        knobs:
            Any other :class:`~repro.core.config.BuildConfig` field
            (``workers``, ``backend``, ``order``, ``core_backend``,
            ``use_equivalence_reduction``, ``extension_cache_size``,
            ``kernel``).  A knob passed alongside ``config=`` must agree
            with it.  Every bad value or conflict raises
            :class:`~repro.exceptions.ConfigurationError` before the
            graph is touched (see
            :func:`~repro.core.config.resolve_build_config`).
        """
        config = resolve_build_config(bandwidth, config, knobs)
        started = time.perf_counter()
        with obs_span(
            "ct.build",
            n=graph.n,
            m=graph.m,
            bandwidth=config.bandwidth,
            backend=config.backend,
            workers=config.workers,
        ):
            with obs_span("ct.reduction"):
                if config.use_equivalence_reduction:
                    reduction = eliminate_equivalent_nodes(graph, kernel=config.kernel)
                else:
                    reduction = reduction_identity(graph)
            decomposition, tree_index, core_index, originals, compact, _ = construct(
                reduction.reduced, config, budget=budget
            )
            del decomposition  # reachable through tree_index
            index = cls(
                graph=graph,
                bandwidth=config.bandwidth,
                reduction=reduction,
                tree_index=tree_index,
                core_index=core_index,
                core_originals=originals,
                core_compact=compact,
                extension_cache_size=config.extension_cache_size,
                kernel=config.kernel,
            )
            if config.backend == "flat":
                index.compact()
        index.build_seconds = time.perf_counter() - started
        return index

    # ------------------------------------------------------------------
    # Storage backends
    # ------------------------------------------------------------------

    @property
    def storage_backend(self) -> str:
        """``"dict"`` or ``"flat"`` — how both label halves are stored.

        The two halves are always converted together, so reading the
        core store's marker is enough.
        """
        return getattr(self.core_index.labels, "storage_backend", "dict")

    def compact(self) -> "CTIndex":
        """Pack both label halves into the CSR flat backend.

        The core 2-hop labels become a
        :class:`~repro.storage.flat_labels.FlatLabelStore` and the tree
        labels a :class:`~repro.storage.flat_tree.FlatTreeLabelStore`;
        every query path reads through the shared protocols, so answers
        are unchanged.  Cached extension sets are dropped (they hold no
        backend state, but this keeps probe counters honest across a
        conversion).  Idempotent; returns ``self``.
        """
        from repro.storage.flat_labels import FlatLabelStore
        from repro.storage.flat_tree import FlatTreeLabelStore

        with obs_span("storage.compact", entries=self.size_entries()):
            if not isinstance(self.core_index.labels, FlatLabelStore):
                self.core_index.compact()
            if not isinstance(self.tree_index.labels, FlatTreeLabelStore):
                flat = FlatTreeLabelStore.from_labels(self.tree_index.labels)
                self.tree_index.labels = flat
                self.tree_index._local_get = flat.local_get
            self.clear_extension_cache()
            self._kernel_state = _UNRESOLVED
        if obs.enabled():
            obs.registry().counter("storage.compactions").inc()
        return self

    def to_dict_backend(self) -> "CTIndex":
        """Unpack both label halves into the mutable dict backend.

        An explicit ``kernel="numpy"`` request is demoted to ``"auto"``
        (the numpy kernels cannot read dict labels); converting back
        with :meth:`compact` re-enables them.
        """
        from repro.storage.flat_tree import FlatTreeLabelStore

        self.core_index.to_dict_backend()
        if isinstance(self.tree_index.labels, FlatTreeLabelStore):
            self.tree_index.labels = self.tree_index.labels.to_dicts()
            self.tree_index._local_get = None
        self.clear_extension_cache()
        if self._kernel_request == KERNEL_NUMPY:
            self._kernel_request = KERNEL_AUTO
        self._kernel_state = _UNRESOLVED
        return self

    # ------------------------------------------------------------------
    # Query kernels
    # ------------------------------------------------------------------

    @property
    def kernel(self) -> str:
        """The resolved query kernel: ``"numpy"`` or ``"python"``."""
        return KERNEL_NUMPY if self._resolved_kernel_state() is not None else "python"

    @property
    def kernel_request(self) -> str:
        """The requested query kernel: ``"auto"``, ``"numpy"`` or ``"python"``."""
        return self._kernel_request

    def set_kernel(self, kernel: str = KERNEL_AUTO) -> "CTIndex":
        """Select the query kernel (``"auto"`` | ``"numpy"`` | ``"python"``).

        An explicit ``"numpy"`` that cannot be honoured raises
        :class:`~repro.exceptions.ConfigurationError` immediately.  The
        extension cache is dropped — the two kernels memoize extension
        sets in different shapes (dicts vs sorted array pairs).
        Returns ``self``.
        """
        resolve_kernel(kernel, flat=self.storage_backend == "flat")
        self._kernel_request = kernel
        self._kernel_state = _UNRESOLVED
        self.clear_extension_cache()
        return self

    def _resolved_kernel_state(self):
        """The CTKernelState to query through, or None (python kernel)."""
        state = self._kernel_state
        if state is _UNRESOLVED:
            resolved = resolve_kernel(
                self._kernel_request, flat=self.storage_backend == "flat"
            )
            if resolved == KERNEL_NUMPY:
                from repro.kernels.ct_kernels import CTKernelState

                state = CTKernelState(self)
            else:
                state = None
            self._kernel_state = state
        return state

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def decomposition(self):
        """The underlying :class:`CoreTreeDecomposition`."""
        return self.tree_index.decomposition

    @property
    def boundary(self) -> int:
        """λ — number of forest nodes (in the reduced graph)."""
        return self.decomposition.boundary

    @property
    def core_size(self) -> int:
        """|B_c| — number of core nodes."""
        return len(self._core_originals)

    @property
    def core_originals(self) -> list[int]:
        """Reduced-graph node id per compact core-graph node."""
        return self._core_originals

    def forest_height(self) -> int:
        """h_F of the forest."""
        return self.decomposition.forest_height()

    def size_entries(self) -> int:
        """Tree labels plus core labels, in entries."""
        return self.tree_index.size_entries() + self.core_index.size_entries()

    def stats(self):
        stats = super().stats()
        extra = dict(stats.extra)
        extra.update(
            boundary=self.boundary,
            core_size=self.core_size,
            forest_height=self.forest_height(),
            tree_entries=self.tree_index.size_entries(),
            core_entries=self.core_index.size_entries(),
        )
        return type(stats)(
            method=stats.method,
            entries=stats.entries,
            bytes=stats.bytes,
            build_seconds=stats.build_seconds,
            extra=extra,
        )

    def reset_counters(self) -> None:
        """Zero the query counters and drop the extension-label cache.

        Dropping the cache keeps probe-count measurements comparable:
        after a reset every query pays its own extension cost again.
        """
        self.case_counts.clear()
        self.core_probes = 0
        self.clear_extension_cache()

    def clear_extension_cache(self) -> None:
        """Drop cached extension sets and zero their hit/miss counters."""
        self._extension_cache.clear()
        self.extension_cache_hits = 0
        self.extension_cache_misses = 0

    @property
    def extension_cache_hit_rate(self) -> float:
        """Fraction of extension-set requests served from the LRU."""
        total = self.extension_cache_hits + self.extension_cache_misses
        return self.extension_cache_hits / total if total else 0.0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def distance(self, s: int, t: int) -> Weight:
        """Exact distance between original-graph nodes ``s`` and ``t``."""
        if not 0 <= s < self.graph.n or not 0 <= t < self.graph.n:
            raise QueryError(f"query nodes ({s}, {t}) out of range")
        if s == t:
            return 0
        rs = self.reduction.representative[s]
        rt = self.reduction.representative[t]
        if rs == rt:
            return self.reduction.class_distance(s, t)
        state = self._resolved_kernel_state()
        if state is not None:
            record_kernel_queries(KERNEL_NUMPY)
            return state.reduced_distance(rs, rt)
        record_kernel_queries("python")
        return self._reduced_distance(rs, rt)

    def distances_from(self, s: int, targets) -> list[Weight]:
        """One-to-many queries from ``s``, reusing per-source state.

        For a forest source the extension operation (the O(d) part of
        Cases 3-4) is computed once and shared across the whole batch,
        so large batches cost roughly one label intersection per target.
        """
        if not 0 <= s < self.graph.n:
            raise QueryError(f"source {s} out of range")
        state = self._resolved_kernel_state()
        if state is not None:
            targets = list(targets)
            for t in targets:
                if not 0 <= t < self.graph.n:
                    raise QueryError(f"target {t} out of range")
            record_kernel_queries(KERNEL_NUMPY, len(targets))
            return state.distances_from(s, targets)
        rs = self.reduction.representative[s]
        pos_s = self.decomposition.position[rs]
        ext_s: dict[int, Weight] | None = None
        results: list[Weight] = []
        for t in targets:
            if not 0 <= t < self.graph.n:
                raise QueryError(f"target {t} out of range")
            if t == s:
                results.append(0)
                continue
            rt = self.reduction.representative[t]
            if rs == rt:
                results.append(self.reduction.class_distance(s, t))
                continue
            pos_t = self.decomposition.position[rt]
            if pos_s is None:
                # Core source: the generic dispatch is already cheap.
                results.append(self._reduced_distance(rs, rt))
                continue
            if pos_t is None:
                self.case_counts["case2"] += 1
                results.append(self._tree_to_core(rs, pos_s, rt))
                continue
            if ext_s is None:
                ext_s = self._extended_labels(pos_s)
            if self.decomposition.same_tree(pos_s, pos_t):
                self.case_counts["case4"] += 1
                meet = self.decomposition.lca(pos_s, pos_t)
                d2: Weight = INF
                for u in self.decomposition.bag_members(meet):
                    left = self.tree_index.local_distance(pos_s, u)
                    if left == INF:
                        continue
                    right = self.tree_index.local_distance(pos_t, u)
                    if left + right < d2:
                        d2 = left + right
                d4 = _dict_intersection(ext_s, self._extended_labels(pos_t))
                results.append(min(d2, d4))
            else:
                self.case_counts["case3"] += 1
                results.append(_dict_intersection(ext_s, self._extended_labels(pos_t)))
        record_kernel_queries("python", len(results))
        return results

    def distances_batch(self, pairs) -> list[Weight]:
        """Pairwise batch; the numpy kernel groups pairs by source.

        Grouping lets every source pay its dense scatter / extension
        computation once across all its pairs; answers stay positional
        and identical to the scalar loop.
        """
        state = self._resolved_kernel_state()
        if state is None:
            return super().distances_batch(pairs)
        pairs = list(pairs)
        for s, t in pairs:
            if not 0 <= s < self.graph.n or not 0 <= t < self.graph.n:
                raise QueryError(f"query nodes ({s}, {t}) out of range")
        record_kernel_queries(KERNEL_NUMPY, len(pairs))
        return state.distances_batch(pairs)

    def distance_naive_4hop(self, s: int, t: int) -> Weight:
        """Like :meth:`distance` but evaluating Equation 1 directly.

        Cases 3-4 enumerate the full interface Cartesian product (O(d²)
        core queries) instead of using the extension operation.  Exists
        for the Lemma 9 ablation and its equivalence tests.
        """
        if not 0 <= s < self.graph.n or not 0 <= t < self.graph.n:
            raise QueryError(f"query nodes ({s}, {t}) out of range")
        if s == t:
            return 0
        rs = self.reduction.representative[s]
        rt = self.reduction.representative[t]
        if rs == rt:
            return self.reduction.class_distance(s, t)
        return self._reduced_distance(rs, rt, naive=True)

    def _reduced_distance(self, s: int, t: int, *, naive: bool = False) -> Weight:
        position = self.decomposition.position
        pos_s = position[s]
        pos_t = position[t]
        if pos_s is None and pos_t is None:
            self.case_counts["case1"] += 1
            return self._core_distance(s, t)
        if pos_s is None:
            s, t = t, s
            pos_s, pos_t = pos_t, pos_s
        assert pos_s is not None
        if pos_t is None:
            self.case_counts["case2"] += 1
            return self._tree_to_core(s, pos_s, t)
        if self.decomposition.same_tree(pos_s, pos_t):
            self.case_counts["case4"] += 1
            return self._same_tree(s, pos_s, t, pos_t, naive)
        self.case_counts["case3"] += 1
        return self._cross_tree(s, pos_s, t, pos_t, naive)

    # -- Case helpers ---------------------------------------------------

    def _core_distance(self, u: int, v: int) -> Weight:
        """2-hop query between two core nodes (original ids).

        Goes straight to the label store rather than through
        ``core_index.distance``: these are *internal* probes of the
        CT-Index cases, so they must not re-enter the core index's own
        kernel dispatch (which would double-record them on the
        per-kernel query counters).
        """
        self.core_probes += 1
        if u == v:
            return 0
        return self.core_index.labels.query(
            self._core_compact[u], self._core_compact[v]
        )

    def _tree_to_core(self, s: int, pos_s: int, t: int) -> Weight:
        interface = self.decomposition.interface[self.decomposition.root[pos_s]]
        best: Weight = INF
        for u in interface:
            du = self.tree_index.local_distance(pos_s, u)
            if du == INF:
                continue
            total = du + self._core_distance(u, t)
            if total < best:
                best = total
        return best

    def _cross_tree(self, s: int, pos_s: int, t: int, pos_t: int, naive: bool) -> Weight:
        if naive:
            return self._naive_interface_product(pos_s, pos_t)
        ext_s = self._extended_labels(pos_s)
        ext_t = self._extended_labels(pos_t)
        return _dict_intersection(ext_s, ext_t)

    def _same_tree(self, s: int, pos_s: int, t: int, pos_t: int, naive: bool) -> Weight:
        # d2: the 2-hop local answer through the LCA bag.
        meet = self.decomposition.lca(pos_s, pos_t)
        d2: Weight = INF
        for u in self.decomposition.bag_members(meet):
            left = self.tree_index.local_distance(pos_s, u)
            if left == INF:
                continue
            right = self.tree_index.local_distance(pos_t, u)
            if left + right < d2:
                d2 = left + right
        # d4: detour through the core (both endpoints share one interface).
        if naive:
            d4 = self._naive_interface_product(pos_s, pos_t)
        else:
            ext_s = self._extended_labels(pos_s)
            ext_t = self._extended_labels(pos_t)
            d4 = _dict_intersection(ext_s, ext_t)
        return min(d2, d4)

    def _extended_labels(self, pos: int) -> dict[int, Weight]:
        """Extension set for forest position ``pos``, via the LRU.

        Returns ``hub rank -> extended distance`` (Section 4.5).  A miss
        costs O(d) core-label scans; a hit is a dictionary lookup.
        Callers must not mutate the returned map.
        """
        return self._extension_entry(pos, self._compute_extended_labels)

    def _extension_entry(self, pos: int, compute):
        """LRU discipline shared by both kernels' extension sets.

        The python kernel memoizes ``rank -> dist`` dicts, the numpy
        kernel sorted ``(ranks, dists)`` array pairs; the cache never
        mixes shapes because every kernel switch (:meth:`set_kernel`,
        :meth:`compact`, :meth:`to_dict_backend`) clears it.
        """
        cache = self._extension_cache
        cached = cache.get(pos)
        if cached is not None:
            self.extension_cache_hits += 1
            cache.move_to_end(pos)
            return cached
        self.extension_cache_misses += 1
        extended = compute(pos)
        if self.extension_cache_size > 0:
            cache[pos] = extended
            if len(cache) > self.extension_cache_size:
                cache.popitem(last=False)
        return extended

    def _compute_extended_labels(self, pos: int) -> dict[int, Weight]:
        """Extension operation: union of interface core labels, shifted."""
        interface = self.decomposition.interface[self.decomposition.root[pos]]
        extended: dict[int, Weight] = {}
        labels = self.core_index.labels
        for u in interface:
            du = self.tree_index.local_distance(pos, u)
            if du == INF:
                continue
            self.core_probes += 1
            for hub_rank, dist in labels.iter_rank_entries(self._core_compact[u]):
                total = du + dist
                old = extended.get(hub_rank)
                if old is None or total < old:
                    extended[hub_rank] = total
        return extended

    def _naive_interface_product(self, pos_s: int, pos_t: int) -> Weight:
        """Equation 1 evaluated directly over N_{r(s)} × N_{r(t)}."""
        interface_s = self.decomposition.interface[self.decomposition.root[pos_s]]
        interface_t = self.decomposition.interface[self.decomposition.root[pos_t]]
        best: Weight = INF
        for u in interface_s:
            du = self.tree_index.local_distance(pos_s, u)
            if du == INF:
                continue
            for w in interface_t:
                dw = self.tree_index.local_distance(pos_t, w)
                if dw == INF:
                    continue
                total = du + self._core_distance(u, w) + dw
                if total < best:
                    best = total
        return best


def _dict_intersection(map_a: dict[int, Weight], map_b: dict[int, Weight]) -> Weight:
    """min over shared keys of the two maps' value sums."""
    if len(map_a) > len(map_b):
        map_a, map_b = map_b, map_a
    best: Weight = INF
    for key, da in map_a.items():
        db = map_b.get(key)
        if db is not None and da + db < best:
            best = da + db
    return best

