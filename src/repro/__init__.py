"""CT-Index: scaling up distance labeling on graphs with core-periphery properties.

A from-scratch Python reproduction of the SIGMOD 2020 paper by Li, Qiao,
Qin, Zhang, Chang, and Lin.  The package ships:

* :mod:`repro.graphs` — the graph substrate (types, I/O, traversal,
  generators, twin reduction);
* :mod:`repro.treedec` — minimum-degree-elimination tree decompositions,
  the core-tree split, and O(1) LCA;
* :mod:`repro.labeling` — PLL / PSL / PSL+ / PSL* 2-hop labelings and
  the H2H and CD baselines;
* :mod:`repro.core` — the paper's contribution, the CT-Index;
* :mod:`repro.serving` — the batch-aware, instrumented query engine
  (latency histograms, cache/probe counters, ``stats_snapshot()``);
* :mod:`repro.bench` — the experiment harness that regenerates every
  table and figure of the evaluation section.

Quickstart (the stable facade — see :mod:`repro.api`)::

    import repro
    from repro.graphs.generators import core_periphery_graph, CorePeripheryConfig

    graph = core_periphery_graph(CorePeripheryConfig(), seed=7)
    index = repro.build(graph, bandwidth=20, backend="flat")
    repro.save(index, "index.bin", format="binary")
    repro.query(index, 0, graph.n - 1)

Observability (off by default, no-op when disabled)::

    import repro.obs as obs

    with obs.observe() as tracer:
        index = repro.build(graph, bandwidth=20)
    obs.write_trace(tracer, "build.trace.jsonl")
"""

from repro.api import (
    SAVE_FORMATS,
    BuildConfig,
    build,
    load,
    query,
    query_batch,
    query_from,
    save,
)
from repro.core import CTIndex
from repro.exceptions import (
    ConfigurationError,
    DecompositionError,
    GraphError,
    IndexConstructionError,
    OverMemoryError,
    QueryError,
    ReproError,
    SerializationError,
)
from repro.graphs import Graph, GraphBuilder
from repro.paths import distance_many, is_shortest_path, shortest_path
from repro.serving import QueryEngine

__version__ = "1.1.0"

__all__ = [
    "BuildConfig",
    "CTIndex",
    "ConfigurationError",
    "DecompositionError",
    "Graph",
    "GraphBuilder",
    "GraphError",
    "IndexConstructionError",
    "OverMemoryError",
    "QueryEngine",
    "QueryError",
    "ReproError",
    "SAVE_FORMATS",
    "SerializationError",
    "__version__",
    "build",
    "distance_many",
    "is_shortest_path",
    "load",
    "query",
    "query_batch",
    "query_from",
    "save",
    "shortest_path",
]
