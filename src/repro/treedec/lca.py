"""Constant-time lowest common ancestors over a forest.

The classic Euler-tour + sparse-table reduction to range-minimum
queries (Harel & Tarjan — cited as [12] in the paper): linear-ish
preprocessing, O(1) per query.  It serves the H2H baseline
(:mod:`repro.labeling.h2h`) and the directed CT-Index
(:mod:`repro.directed.ct`), whose full decompositions can be deep.  The
undirected CT-Index does not use it: its forests are shallow, so
:meth:`repro.treedec.core_tree.CoreTreeDecomposition.lca` walks parent
pointers instead of building a table at every build and load.
:func:`naive_lca` is the test oracle for both.
"""

from __future__ import annotations

from repro.exceptions import DecompositionError


class ForestLCA:
    """LCA index over a forest given as a parent array.

    ``parent[v]`` is the parent of node ``v`` or ``None`` for roots.  The
    node universe is ``0 .. len(parent) - 1``.  Nodes in different trees
    have no LCA; :meth:`lca` raises for such pairs, and
    :meth:`same_tree` tests membership first.
    """

    def __init__(self, parent: list[int | None]) -> None:
        n = len(parent)
        self._parent = list(parent)
        children: list[list[int]] = [[] for _ in range(n)]
        roots: list[int] = []
        for v, p in enumerate(parent):
            if p is None:
                roots.append(v)
            else:
                if not 0 <= p < n:
                    raise DecompositionError(f"parent {p} of node {v} is out of range")
                children[p].append(v)

        self._euler: list[int] = []
        self._depth_at: list[int] = []
        self._first: list[int] = [-1] * n
        self._depth: list[int] = [0] * n
        self._root_of: list[int] = [-1] * n
        for root in roots:
            self._tour(root, children)
        if any(r == -1 for r in self._root_of):
            raise DecompositionError("parent array contains a cycle")
        self._build_sparse_table()

    def _tour(self, root: int, children: list[list[int]]) -> None:
        """Iterative Euler tour of one tree."""
        stack: list[tuple[int, int]] = [(root, 0)]
        self._depth[root] = 0
        self._root_of[root] = root
        while stack:
            v, child_index = stack.pop()
            self._record(v)
            if child_index < len(children[v]):
                stack.append((v, child_index + 1))
                child = children[v][child_index]
                self._depth[child] = self._depth[v] + 1
                self._root_of[child] = root
                stack.append((child, 0))

    def _record(self, v: int) -> None:
        if self._first[v] == -1:
            self._first[v] = len(self._euler)
        self._euler.append(v)
        self._depth_at.append(self._depth[v])

    def _build_sparse_table(self) -> None:
        size = len(self._euler)
        self._log = [0] * (size + 1)
        for i in range(2, size + 1):
            self._log[i] = self._log[i // 2] + 1
        # table[k][i] = index (into euler) of the min-depth entry in
        # euler[i : i + 2^k].
        table: list[list[int]] = [list(range(size))]
        k = 1
        while (1 << k) <= size:
            previous = table[k - 1]
            length = size - (1 << k) + 1
            row = [0] * length
            half = 1 << (k - 1)
            for i in range(length):
                left = previous[i]
                right = previous[i + half]
                row[i] = left if self._depth_at[left] <= self._depth_at[right] else right
            table.append(row)
            k += 1
        self._table = table

    @property
    def n(self) -> int:
        """Number of nodes in the forest."""
        return len(self._parent)

    def depth(self, v: int) -> int:
        """Depth of ``v`` within its tree (roots have depth 0)."""
        return self._depth[v]

    def root(self, v: int) -> int:
        """Root of the tree containing ``v``."""
        return self._root_of[v]

    def same_tree(self, u: int, v: int) -> bool:
        """True when ``u`` and ``v`` belong to the same tree."""
        return self._root_of[u] == self._root_of[v]

    def lca(self, u: int, v: int) -> int:
        """Lowest common ancestor of ``u`` and ``v`` (same tree required)."""
        if not self.same_tree(u, v):
            raise DecompositionError(f"nodes {u} and {v} are in different trees")
        i, j = self._first[u], self._first[v]
        if i > j:
            i, j = j, i
        k = self._log[j - i + 1]
        left = self._table[k][i]
        right = self._table[k][j - (1 << k) + 1]
        winner = left if self._depth_at[left] <= self._depth_at[right] else right
        return self._euler[winner]

    def is_ancestor(self, ancestor: int, v: int) -> bool:
        """True when ``ancestor`` is ``v`` itself or a proper ancestor."""
        return self.same_tree(ancestor, v) and self.lca(ancestor, v) == ancestor


def naive_lca(parent: list[int | None], u: int, v: int) -> int | None:
    """Reference LCA by walking parent chains; ``None`` for separate trees.

    Quadratic and only used to cross-check :class:`ForestLCA` and
    :meth:`~repro.treedec.core_tree.CoreTreeDecomposition.lca` in tests.
    """
    ancestors: set[int] = set()
    x: int | None = u
    while x is not None:
        ancestors.add(x)
        x = parent[x]
    y: int | None = v
    while y is not None:
        if y in ancestors:
            return y
        y = parent[y]
    return None
