"""Equivalence-relation elimination (the PSL+ twin reduction).

Two nodes are *twins* when they have identical neighborhoods.  The paper
(Section 7, "Algorithms") keeps a single representative per twin class:
removing a twin cannot change any other pair's distance because every
path through it can be rerouted through its representative at equal
length.  Queries on the reduced graph are mapped back with a constant
amount of bookkeeping:

* **false twins** — ``N(u) = N(v)``, ``u`` and ``v`` not adjacent: two
  distinct class members are at distance 2 (through any shared neighbor);
* **true twins** — ``N(u) ∪ {u} = N(v) ∪ {v}``, adjacent: distance 1.

The reduction is defined for unweighted graphs (all the paper's datasets
are unweighted); weighted inputs are returned unreduced.

Two paths compute the same reduction field for field: the array kernel
:func:`repro.kernels.graph_arrays.eliminate_twins`, which hashes and
compares the rows of the graph's CSR and builds the quotient graph as a
CSR, and the scalar dict-of-tuples path below, which stays as the
NumPy-less path and the test oracle.
"""

from __future__ import annotations

import dataclasses
from array import array
from collections import defaultdict
from collections.abc import Sequence

from repro.exceptions import GraphError
from repro.graphs.builder import GraphBuilder
from repro.graphs.graph import INF, Graph, Weight
from repro.kernels import KERNEL_AUTO, KERNEL_NUMPY, KERNEL_PYTHON, construction_kernel
from repro.obs.tracing import span as obs_span


#: Byte code of each ``twin_kind`` value (the binary snapshot's encoding).
TWIN_KIND_CODES = {None: 0, "true": 1, "false": 2}
_KIND_OF_CODE = (None, "true", "false")


class TwinKinds(Sequence):
    """``twin_kind`` decoded on demand from its byte codes.

    ``codes`` is an ``array('B')`` whose entry ``v`` is the
    :data:`TWIN_KIND_CODES` code of node ``v``.  Every reduction holds
    its kinds this way, so a snapshot load adopts the stored code array
    instead of building one Python object per node; ``twin_kind[v]``
    decodes a single entry.  Compares equal to the decoded list.
    """

    __slots__ = ("codes",)

    def __init__(self, codes) -> None:
        self.codes = codes

    @classmethod
    def from_kinds(cls, kinds) -> "TwinKinds":
        """Encode ``"true"`` / ``"false"`` / ``None`` values (``KeyError`` on others)."""
        return cls(array("B", [TWIN_KIND_CODES[kind] for kind in kinds]))

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, v: int) -> str | None:
        return _KIND_OF_CODE[self.codes[v]]

    def __iter__(self):
        return map(_KIND_OF_CODE.__getitem__, self.codes)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TwinKinds):
            return self.codes.tobytes() == other.codes.tobytes()
        if isinstance(other, Sequence) and not isinstance(other, str):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TwinKinds({list(self)!r})"


@dataclasses.dataclass(frozen=True)
class EquivalenceReduction:
    """Result of :func:`eliminate_equivalent_nodes`.

    Attributes
    ----------
    original:
        The input graph.
    reduced:
        The graph on one representative per twin class.
    representative:
        ``representative[v]`` is the reduced-graph node standing in for
        original node ``v``.
    originals:
        ``originals[i]`` is the original node id kept for reduced node ``i``.
    twin_kind:
        ``twin_kind[v]`` is ``"true"`` / ``"false"`` for nodes folded into
        a multi-member class and ``None`` for singleton classes, held as
        a :class:`TwinKinds` over one byte code per node.
    build_kernel:
        ``"numpy"`` when the array kernel computed the reduction,
        ``"python"`` otherwise (not part of equality).
    """

    original: Graph
    reduced: Graph
    representative: list[int]
    originals: list[int]
    twin_kind: TwinKinds
    build_kernel: str = dataclasses.field(default=KERNEL_PYTHON, compare=False)

    @property
    def removed_count(self) -> int:
        """How many nodes the reduction removed."""
        return self.original.n - self.reduced.n

    def class_distance(self, u: int, v: int) -> Weight:
        """Distance between two original nodes sharing a representative."""
        if self.representative[u] != self.representative[v]:
            raise GraphError("nodes are not in the same equivalence class")
        if u == v:
            return 0
        kind = self.twin_kind[u]
        if kind == "true":
            return 1
        if kind == "false":
            # Distinct false twins share every neighbor; an isolated twin
            # class (no neighbors) is disconnected from itself only in the
            # degenerate deg-0 case, which cannot be a multi-member class.
            return 2
        raise GraphError(f"node {u} is not part of a folded twin class")

    def map_distance(self, s: int, t: int, reduced_distance: Weight) -> Weight:
        """Translate a reduced-graph distance back to the original pair.

        ``reduced_distance`` must be the distance between
        ``representative[s]`` and ``representative[t]`` in the reduced
        graph.  Handles the same-representative special case.
        """
        if s == t:
            return 0
        if self.representative[s] == self.representative[t]:
            return self.class_distance(s, t)
        return reduced_distance


def eliminate_equivalent_nodes(
    graph: Graph, *, kernel: str = KERNEL_AUTO
) -> EquivalenceReduction:
    """Collapse every twin class of ``graph`` to one representative.

    A single pass folds both false twins (equal open neighborhoods) and
    true twins (equal closed neighborhoods).  Weighted graphs are
    returned unreduced because twin distances are no longer the constant
    1 / 2 the query-time correction relies on.

    ``kernel`` selects the path as for every builder (see
    :func:`repro.kernels.construction_kernel`): the array kernel runs on
    graphs whose weights are all the integer 1; the scalar path runs
    otherwise.  Both give the same reduction; ``build_kernel`` on the
    result, and the ``graphs.reduction`` span, say which one ran.
    """
    resolved = construction_kernel(kernel, graph.n)
    if not graph.unweighted:
        return reduction_identity(graph)
    if resolved == KERNEL_NUMPY and graph.weights is not None:
        # Only the scalar path carries weights like 1.0 into the reduced graph.
        resolved = KERNEL_PYTHON
    with obs_span("graphs.reduction", n=graph.n, m=graph.m, kernel=resolved):
        if resolved == KERNEL_NUMPY:
            from repro.kernels.graph_arrays import eliminate_twins

            reduced, representative, originals, twin_kind = eliminate_twins(graph)
            return EquivalenceReduction(
                original=graph,
                reduced=reduced,
                representative=representative,
                originals=originals,
                twin_kind=twin_kind,
                build_kernel=KERNEL_NUMPY,
            )
        return _eliminate_scalar(graph)


def _eliminate_scalar(graph: Graph) -> EquivalenceReduction:
    """The dict-of-tuples twin reduction of an unweighted ``graph``."""
    identity = list(range(graph.n))
    false_classes: dict[tuple[int, ...], list[int]] = defaultdict(list)
    true_classes: dict[tuple[int, ...], list[int]] = defaultdict(list)
    for v in graph.nodes():
        neighborhood = graph.neighbor_ids(v)
        false_classes[neighborhood].append(v)
        closed = tuple(sorted(neighborhood + (v,)))
        true_classes[closed].append(v)

    representative = identity.copy()
    codes = array("B", bytes(graph.n))
    # False twins first; a node can belong to one false class and one true
    # class, but the classes never mix (members of a false class are
    # pairwise non-adjacent, of a true class pairwise adjacent).
    for neighborhood, members in false_classes.items():
        # Degree-0 nodes share the empty neighborhood but are mutually
        # unreachable, so they must not be folded.
        if len(members) > 1 and neighborhood:
            keeper = members[0]
            for v in members:
                representative[v] = keeper
                codes[v] = TWIN_KIND_CODES["false"]
    for members in true_classes.values():
        if len(members) > 1 and not any(codes[v] for v in members):
            keeper = members[0]
            for v in members:
                representative[v] = keeper
                codes[v] = TWIN_KIND_CODES["true"]

    keepers = sorted({representative[v] for v in graph.nodes()})
    compact = {orig: i for i, orig in enumerate(keepers)}
    builder = GraphBuilder(len(keepers))
    for u, v, w in graph.edges():
        ru, rv = representative[u], representative[v]
        if ru != rv:
            builder.add_edge(compact[ru], compact[rv], w)
    reduced = builder.build()
    final_representative = [compact[representative[v]] for v in graph.nodes()]
    return EquivalenceReduction(
        original=graph,
        reduced=reduced,
        representative=final_representative,
        originals=keepers,
        twin_kind=TwinKinds(codes),
    )


def reduction_identity(graph: Graph) -> EquivalenceReduction:
    """A no-op reduction, for code paths that make twin folding optional."""
    identity = list(range(graph.n))
    return EquivalenceReduction(
        original=graph,
        reduced=graph,
        representative=identity,
        originals=identity.copy(),
        twin_kind=TwinKinds(array("B", bytes(graph.n))),
    )


def first_members(representative) -> list[int] | None:
    """Each class's smallest member, when those come in class order.

    Both reduction paths fold a class into its smallest node and number
    the classes by that node, so ``originals`` is exactly this list and
    a snapshot need not store it.  Returns ``None`` when
    ``representative`` is not numbered that way: a class id is negative,
    or some class's first member comes before a smaller class's.
    """
    members: list[int] = []
    k = 0
    for v, rep_v in enumerate(representative):
        if rep_v >= k:
            if rep_v != k:
                return None
            members.append(v)
            k += 1
        elif rep_v < 0:
            return None
    return members


def verify_reduction_distances(reduction: EquivalenceReduction, samples: int = 50) -> None:
    """Assert (via BFS) that the reduction preserves sampled distances.

    Debugging helper used in tests; raises :class:`GraphError` on the
    first mismatch.
    """
    import random

    from repro.graphs.traversal import single_source_distances

    graph = reduction.original
    if graph.n == 0:
        return
    rng = random.Random(0xC0FFEE)
    reduced_cache: dict[int, list[Weight]] = {}
    for _ in range(samples):
        s = rng.randrange(graph.n)
        t = rng.randrange(graph.n)
        truth = single_source_distances(graph, s)[t]
        rs = reduction.representative[s]
        if rs not in reduced_cache:
            reduced_cache[rs] = single_source_distances(reduction.reduced, rs)
        reduced_distance = reduced_cache[rs][reduction.representative[t]]
        mapped = reduction.map_distance(s, t, reduced_distance)
        if mapped != truth and not (mapped == INF and truth == INF):
            raise GraphError(f"reduction broke distance ({s}, {t}): {mapped} != {truth}")
