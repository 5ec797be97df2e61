"""Core-tree decomposition (Section 4.3).

Given a bandwidth ``d``, the MDE prefix (bags of at most ``d + 1``
nodes) forms a forest ``F`` of small bags, and the residual nodes form the core ``B_c``.
Per eliminated node this module derives the parent ``f(i)``, the root
function ``r(i)``, tree depths and the per-tree *interface* (the core
neighbors ``N_r`` of the root bag — at most ``d`` nodes), in one
descending pass over the elimination's bag arrays.  This is the
skeleton both CT-Index and the CD baseline hang their labels on.

The LCA of two same-tree bags (query Case 4) walks parent pointers from
equal depth: at most ``h_F`` steps, and the forests of core-periphery
graphs are shallow, so no Euler-tour table is built.
"""

from __future__ import annotations

import dataclasses

from repro.exceptions import DecompositionError
from repro.graphs.graph import Graph
from repro.treedec.elimination import EliminationResult, minimum_degree_elimination


@dataclasses.dataclass
class CoreTreeDecomposition:
    """The forest/core split produced by bandwidth-bounded MDE.

    All per-node arrays are indexed by *elimination position* (0-based);
    use :attr:`position` to translate node ids.

    Attributes
    ----------
    elimination:
        The underlying bounded MDE run (bags, local distances, core).
    parent:
        ``parent[i]`` is the elimination position of bag ``i``'s parent
        inside the forest, or ``None`` when bag ``i`` is a tree root
        (its parent bag lies in the core, or it has no neighbors).
    root:
        ``root[i]`` — position of the root ``r(i)`` of ``i``'s tree.
    depth:
        ``depth[i]`` — 0 at roots, parent depth + 1 below.
    interface:
        ``interface[r]`` for each root position ``r``: the sorted core
        node ids of ``N_r`` (size <= d by construction).
    """

    elimination: EliminationResult
    parent: list[int | None]
    root: list[int]
    depth: list[int]
    interface: dict[int, tuple[int, ...]]

    @classmethod
    def from_elimination(cls, elimination: EliminationResult) -> "CoreTreeDecomposition":
        """Derive parents, roots, depths and interfaces from the bags.

        A bag's parent ``f(i)`` is the smallest position among its tree
        (non-core) neighbors.  Parents always have larger positions, so
        one descending sweep sees every parent before its children and
        sets ``root``/``depth`` as it goes; a root's interface is its
        bag's neighbor slice (all core nodes, ascending).

        Raises :class:`~repro.exceptions.DecompositionError` when a bag
        lists its own node or a node eliminated before it (Lemma 2
        forbids both), which would close a loop in the parent array.
        """
        boundary = elimination.boundary
        offsets = elimination.offsets
        neighbors = list(elimination.neighbors)
        # Core nodes key as ``boundary``: the min over a bag's keys is
        # then its parent's position, or ``boundary`` for a root.
        key = [boundary if pos is None else pos for pos in elimination.position]
        keys = list(map(key.__getitem__, neighbors))
        parent: list[int | None] = [None] * boundary
        root = list(range(boundary))
        depth = [0] * boundary
        interface: dict[int, tuple[int, ...]] = {}
        hi = offsets[boundary]
        for pos in range(boundary - 1, -1, -1):
            lo = offsets[pos]
            p = min(keys[lo:hi], default=boundary)
            if p == boundary:
                interface[pos] = tuple(neighbors[lo:hi])
            elif p <= pos:
                raise DecompositionError(
                    f"bag {pos} lists a node eliminated at or before it (Lemma 2)"
                )
            else:
                parent[pos] = p
                root[pos] = root[p]
                depth[pos] = depth[p] + 1
            hi = lo
        return cls(
            elimination=elimination,
            parent=parent,
            root=root,
            depth=depth,
            interface=interface,
        )

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------

    @property
    def graph(self) -> Graph:
        """The decomposed graph."""
        return self.elimination.graph

    @property
    def bandwidth(self) -> int:
        """The ``d`` this decomposition was built with."""
        assert self.elimination.bandwidth is not None
        return self.elimination.bandwidth

    @property
    def boundary(self) -> int:
        """λ — number of forest (eliminated) nodes."""
        return self.elimination.boundary

    @property
    def core_nodes(self) -> list[int]:
        """Sorted node ids of the core ``B_c``."""
        return self.elimination.core_nodes

    @property
    def position(self) -> list[int | None]:
        """Node id -> elimination position (``None`` for core nodes)."""
        return self.elimination.position

    @property
    def roots(self) -> list[int]:
        """Positions of the tree roots (the root set ``R``)."""
        return sorted(self.interface)

    def forest_height(self) -> int:
        """``h_F`` — the maximum tree height, in nodes (0 if no forest)."""
        if not self.depth:
            return 0
        return max(self.depth) + 1

    def node_at(self, position: int) -> int:
        """Node id eliminated at ``position``."""
        return self.elimination.order[position]

    def is_core(self, v: int) -> bool:
        """True when node ``v`` belongs to the core."""
        return self.elimination.is_core(v)

    def tree_of(self, v: int) -> int:
        """Root position of the tree containing forest node ``v``."""
        pos = self.position[v]
        if pos is None:
            raise DecompositionError(f"node {v} is a core node, not a forest node")
        return self.root[pos]

    def interface_of(self, v: int) -> tuple[int, ...]:
        """Interface node ids ``N_{r(v)}`` of forest node ``v``'s tree."""
        return self.interface[self.tree_of(v)]

    def ancestors_of(self, position: int) -> list[int]:
        """Positions on the chain from ``position``'s parent to its root."""
        chain: list[int] = []
        p = self.parent[position]
        while p is not None:
            chain.append(p)
            p = self.parent[p]
        return chain

    def lca(self, pos_u: int, pos_v: int) -> int:
        """Position of the LCA bag of two same-tree positions.

        Lifts the deeper position to the other's depth, then walks both
        up in lockstep — at most ``h_F`` parent hops.
        """
        if self.root[pos_u] != self.root[pos_v]:
            raise DecompositionError(
                f"positions {pos_u} and {pos_v} are in different trees"
            )
        parent = self.parent
        depth_u, depth_v = self.depth[pos_u], self.depth[pos_v]
        while depth_u > depth_v:
            pos_u = parent[pos_u]  # type: ignore[assignment]
            depth_u -= 1
        while depth_v > depth_u:
            pos_v = parent[pos_v]  # type: ignore[assignment]
            depth_v -= 1
        while pos_u != pos_v:
            pos_u = parent[pos_u]  # type: ignore[assignment]
            pos_v = parent[pos_v]  # type: ignore[assignment]
        return pos_u

    def same_tree(self, pos_u: int, pos_v: int) -> bool:
        """True when two positions belong to the same tree of the forest."""
        return self.root[pos_u] == self.root[pos_v]

    def bag_members(self, position: int) -> tuple[int, ...]:
        """Node ids of bag ``B`` at ``position`` (owner + transient neighbors)."""
        neighbors, _ = self.elimination.bag(position)
        return tuple(sorted([self.elimination.order[position], *neighbors]))

    def tree_members(self) -> dict[int, list[int]]:
        """Map root position -> positions of its tree members (incl. root)."""
        members: dict[int, list[int]] = {r: [] for r in self.interface}
        for pos, r in enumerate(self.root):
            members[r].append(pos)
        return members

    def core_graph(self) -> tuple[Graph, list[int]]:
        """Compact weighted core graph ``G_{λ+1}`` (see EliminationResult)."""
        return self.elimination.core_graph()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check the structural invariants of Section 4.3."""
        d = self.bandwidth
        position = self.position
        for pos in range(self.boundary):
            bag, _ = self.elimination.bag(pos)
            if len(bag) > d:
                raise DecompositionError(
                    f"bag at position {pos} has {len(bag)} neighbors, "
                    f"but elimination must stop at bandwidth {d}"
                )
            tree_neighbors = [u for u in bag if position[u] is not None]
            if tree_neighbors:
                expected_parent = min(position[u] for u in tree_neighbors)  # type: ignore[type-var]
                if self.parent[pos] != expected_parent:
                    raise DecompositionError(f"wrong parent at position {pos}")
                for u in tree_neighbors:
                    u_pos = position[u]
                    assert u_pos is not None
                    if u_pos <= pos:
                        raise DecompositionError(
                            f"neighbor {u} of bag {pos} was eliminated earlier (Lemma 2)"
                        )
            else:
                if self.parent[pos] is not None:
                    raise DecompositionError(f"position {pos} should be a root")
        for r, nodes in self.interface.items():
            if self.parent[r] is not None:
                raise DecompositionError(f"interface recorded for non-root {r}")
            if len(nodes) > d:
                raise DecompositionError(
                    f"interface of root {r} has {len(nodes)} > d = {d} nodes"
                )
            if any(not self.is_core(u) for u in nodes):
                raise DecompositionError(f"interface of root {r} contains non-core nodes")


def core_tree_decomposition(
    graph: Graph,
    bandwidth: int,
    *,
    elimination: EliminationResult | None = None,
) -> CoreTreeDecomposition:
    """Build the core-tree decomposition of ``graph`` at ``bandwidth``.

    An existing bounded :class:`EliminationResult` (with matching
    bandwidth) can be supplied to avoid re-running MDE.
    """
    if elimination is None:
        elimination = minimum_degree_elimination(graph, bandwidth=bandwidth)
    elif elimination.bandwidth != bandwidth:
        raise DecompositionError(
            f"elimination was run with bandwidth {elimination.bandwidth}, "
            f"but {bandwidth} was requested"
        )

    return CoreTreeDecomposition.from_elimination(elimination)
