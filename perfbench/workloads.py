"""Workloads, their seeded inputs, and how a run divides its seconds.

Each workload is one fixed graph.  A run generates it, writes it once
as an edge list, and then drives the program through its public
functions only: fresh build processes, fresh load processes, an
in-process query stage and an HTTP serving stage.  The run's seed draws
every request stream and the gate's sources and targets.

The graph does not follow the seed on purpose: across generator seeds
the cp-100k core ranges from about 700 to 1,100 nodes and its build time
with it, which would swamp every regression bound.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

#: The only build setting the benchmark chooses: ``repro.build(graph, 20)``.
BANDWIDTH = 20

#: Requests per second of the serving stage's open loop.
OPEN_LOOP_RPS = 400

#: Keep-alive connections of the serving stage's single client process.
CONNECTIONS = 2

#: Correctness gate: BFS sources and targets per source.
GATE_SOURCES = 20
GATE_TARGETS = 100

#: Shape of the query stage's batched operations.
BATCH_PAIRS = 64
FROM_TARGETS = 256

#: Trace runs time this many pairs of each query case.
CASE_PROBES = 400


def _cp(core, density, communities, fringe, *, max_comm):
    """A core-periphery family (the scale tiers' parameter shape)."""
    return {
        "core_size": core,
        "core_density": density,
        "community_count": communities,
        "community_size_min": 5,
        "community_size_max": max_comm,
        "community_size_exponent": 2.0,
        "community_density": 0.75,
        "community_anchors": 3,
        "fringe_size": fringe,
        "fringe_core_bias": 0.85,
        "fringe_extra_edge_prob": 0.15,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  #: "cp" (core-periphery) or "rmat"
    graph_seed: int
    params: dict
    smoke_params: dict

    def generate(self, *, smoke: bool = False):
        """The workload's graph (a ``repro`` Graph)."""
        params = self.smoke_params if smoke else self.params
        if self.family == "cp":
            from repro.graphs.generators.core_periphery import (
                CorePeripheryConfig,
                core_periphery_graph,
            )

            return core_periphery_graph(CorePeripheryConfig(**params), self.graph_seed)
        from repro.graphs.generators.rmat import rmat_graph

        return rmat_graph(params["scale"], params["edge_factor"], self.graph_seed)


WORKLOADS = {
    workload.name: workload
    for workload in (
        # The paper's target shape (the scale tiers' cp-100k): twin
        # reduction, elimination and forest labels lead the build, and 98%
        # of uniform pairs are Case 3, which overflows the extension LRU.
        Workload(
            "cp100k",
            "cp",
            1303,
            _cp(300, 0.12, 120, 96_000, max_comm=60),
            _cp(80, 0.45, 8, 700, max_comm=40),
        ),
        # Scale-free R-MAT: elimination stalls, so core labelling is most
        # of a build and queries probe the core labels far more often.
        Workload(
            "rmat14",
            "rmat",
            1314,
            {"scale": 14, "edge_factor": 4},
            {"scale": 10, "edge_factor": 4},
        ),
    )
}


@dataclass(frozen=True)
class Plan:
    """How one run spends its time: process counts and phase seconds."""

    builds: int  #: build processes, each followed by a query process
    query_s: float  #: measured seconds of each query process
    warmup_s: float
    open_s: float
    closed_s: float


def plan_for(seconds: float, *, traced: bool, smoke: bool) -> Plan:
    """Divide ``seconds`` of measurement between the query and serve stages.

    Builds are counted, not timed: a build is one indivisible sample.  A
    traced run makes its first build untraced, as the reference for its
    gates.  Query processes alternate with the builds, so build and query
    samples spread over the whole run and a burst of load from elsewhere
    on the host reaches few of them.
    """
    builds = 2 if smoke else 4
    return Plan(
        builds=builds,
        query_s=0.43 * seconds / builds,
        warmup_s=0.05 * seconds,
        open_s=0.40 * seconds,
        closed_s=0.12 * seconds,
    )


def stream(seed: int, name: str) -> random.Random:
    """An independent, reproducible random stream per (seed, purpose)."""
    return random.Random(f"perfbench:{seed}:{name}")


def pairs(rng: random.Random, n: int, count: int) -> list[tuple[int, int]]:
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def gate_pairs(seed: int, n: int) -> list[tuple[int, int]]:
    """The pairs every access path must answer exactly: 20 sources x 100."""
    rng = stream(seed, "gate")
    sources = rng.sample(range(n), min(GATE_SOURCES, n))
    return [(s, rng.randrange(n)) for s in sources for _ in range(GATE_TARGETS)]


def write_edge_list(graph, path) -> str:
    """Write ``graph`` as ``u v`` lines; returns the file's sha256."""
    if not graph.unweighted:
        raise ValueError("workload graphs are unweighted; the BFS oracle relies on it")
    digest = hashlib.sha256()
    with open(path, "w", encoding="utf-8") as handle:
        for u in range(graph.n):
            lines = "".join(
                f"{u} {v}\n" for v in graph.neighbor_ids(u) if u < v
            )
            handle.write(lines)
            digest.update(lines.encode())
    return digest.hexdigest()
