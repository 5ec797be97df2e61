"""The measured processes.  Each build, query run and server is one.

Run as ``python -m perfbench.child SPEC.json``; the spec names the role
and where to write the result document.  A fresh process per
measurement means its peak RSS (``RUSAGE_SELF``) belongs to that
measurement alone, and no warm state leaks from one into the next.

Only public calls of the program are used: ``repro.build`` /
``compact`` / ``repro.save`` for a build, the layer functions one by one
for a traced build, ``repro.load(mmap=True)`` and ``repro.query`` /
``query_batch`` / ``query_from`` for queries, and ``QueryEngine`` +
``DistanceServer`` for serving.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path

from perfbench.oracle import ids_digest
from perfbench.spans import Tracer
from perfbench.stats import quantile
from perfbench.workloads import (
    BANDWIDTH,
    BATCH_PAIRS,
    CASE_PROBES,
    FROM_TARGETS,
    pairs,
    stream,
)

#: Operations per round: a cycle is one round of each kind.
SINGLE_ROUND = 2_000
BATCH_ROUND = 20
FROM_ROUND = 5


def own_peak_rss_mb() -> float:
    """This process's own high-water mark (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------


def build(spec: dict, tracer: Tracer) -> dict:
    import repro
    from repro.core.serialization import index_fingerprint
    from repro.graphs.io import read_edge_list

    snapshot = spec["snapshot"]
    started = time.perf_counter()
    with tracer.span("graphs.load"):
        graph, ids = read_edge_list(spec["edges"])
    loaded = time.perf_counter()
    if tracer.enabled:
        index, counts = _layered_build(graph, snapshot, tracer)
    else:
        index = repro.build(graph, BANDWIDTH)
        index.compact()
        repro.save(index, snapshot, format="binary")
        counts = None
    finished = time.perf_counter()
    stats = index.stats().extra
    return {
        "load_s": loaded - started,
        "build_s": finished - loaded,
        "n": graph.n,
        "m": graph.m,
        "ids_digest": ids_digest(ids),
        "index_bytes": os.path.getsize(snapshot),
        "fingerprint": hashlib.sha256(index_fingerprint(index)).hexdigest(),
        "stats": {
            key: stats[key]
            for key in ("boundary", "core_size", "tree_entries", "core_entries")
        },
        "layer_counts": counts,
    }


def _layered_build(graph, snapshot, tracer: Tracer):
    """The build of ``repro.build`` + ``compact`` + ``save``, one layer at a time."""
    import repro
    from repro.core import CTIndex, build_core_index, build_tree_index
    from repro.graphs.reductions import eliminate_equivalent_nodes
    from repro.treedec.core_tree import core_tree_decomposition

    with tracer.span("build"):
        with tracer.span("graphs.reduction"):
            reduction = eliminate_equivalent_nodes(graph)
        with tracer.span("treedec.decompose"):
            decomposition = core_tree_decomposition(reduction.reduced, BANDWIDTH)
        with tracer.span("core.forest_labels"):
            tree_index = build_tree_index(decomposition)
        with tracer.span("labeling.core_labels"):
            core_index, originals, compact = build_core_index(decomposition)
        index = CTIndex(
            graph=graph,
            bandwidth=BANDWIDTH,
            reduction=reduction,
            tree_index=tree_index,
            core_index=core_index,
            core_originals=originals,
            core_compact=compact,
        )
        with tracer.span("storage.compact"):
            index.compact()
        with tracer.span("storage.save"):
            repro.save(index, snapshot, format="binary")
    round_stats = getattr(core_index, "round_stats", None) or {}
    counts = {
        "reduced_n": reduction.reduced.n,
        "core_n": len(decomposition.core_nodes),
        "core_m": core_index.graph.m,
        "boundary": decomposition.boundary,
        "core_weighted": int(not core_index.graph.unweighted),
        "core_size": len(originals),
        "tree_entries": tree_index.size_entries(),
        "core_entries": core_index.size_entries(),
        "psl_rounds": round_stats.get("rounds", 0),
    }
    return index, counts


# ----------------------------------------------------------------------
# set-up every query or serving process pays: mmap load + first query
# ----------------------------------------------------------------------


def _open(spec: dict, tracer: Tracer):
    import repro

    started = time.perf_counter()
    with tracer.span("storage.load_mmap"):
        index = repro.load(spec["snapshot"], mmap=True)
    loaded = time.perf_counter()
    with tracer.span("kernels.first_query"):
        repro.query(index, *spec["first_pair"])
    queried = time.perf_counter()
    return index, {"load_s": loaded - started, "first_query_s": queried - loaded}


# ----------------------------------------------------------------------
# query: closed loop, one client, in process
# ----------------------------------------------------------------------

KINDS = ("single", "batch", "from")


class _Tally:
    """What the recorded rounds of one query process measured."""

    def __init__(self) -> None:
        self.latency_ns = array("q")
        self.round_ns: dict[str, list[int]] = {"p50": [], "p99": []}
        self.rates: dict[str, list[float]] = {kind: [] for kind in KINDS}
        self.ops = dict.fromkeys(KINDS, 0)
        self.failed = 0
        self.cases: Counter[str] = Counter()
        self.ext: Counter[str] = Counter()

    def add(self, kind: str, ops: int, errors: int, elapsed_ns: int, answers_per_op: int) -> None:
        self.ops[kind] += ops
        self.failed += errors
        self.rates[kind].append((ops - errors) * answers_per_op / elapsed_ns * 1e9)

    def add_latencies(self, round_ns: array) -> None:
        """Keep a single-pair round's latencies and its own p50 and p99."""
        self.latency_ns.extend(round_ns)
        ordered = sorted(round_ns)
        self.round_ns["p50"].append(quantile(ordered, 0.5))
        self.round_ns["p99"].append(quantile(ordered, 0.99))


def query(spec: dict, tracer: Tracer) -> dict:
    index, result = _open(spec, tracer)
    result.update(measure_queries(index, spec, tracer))
    return result


def measure_queries(index, spec: dict, tracer: Tracer) -> dict:
    """Cycles of single, batch and one-to-many rounds, then the gate answers.

    The three kinds of round alternate, so each samples the same stretch
    of time.  The first cycle fills caches and its timings are dropped.
    """
    import repro

    rng = stream(spec["seed"], f"query{spec['rep']}")
    classify = _classifier(index) if tracer.enabled else None
    warm = _Tally()
    _cycle(index, rng, warm, None)
    tally = _Tally()
    tally.ops, tally.failed = warm.ops, warm.failed
    deadline = time.perf_counter() + spec["query_s"]
    with tracer.span("query.cycles"):
        while not tally.rates["single"] or time.perf_counter() < deadline:
            _cycle(index, rng, tally, classify)

    gate = [tuple(pair) for pair in spec["gate_pairs"]]
    from_answers = {}
    for s in dict.fromkeys(s for s, _ in gate):
        targets = [t for source, t in gate if source == s]
        from_answers[s] = iter(repro.query_from(index, s, targets))
    result = {
        "latency_ns": tally.latency_ns.tolist(),
        "round_ns": tally.round_ns,
        "rates": tally.rates,
        "ops": tally.ops,
        "failed": tally.failed,
        "gate": {
            "query": [repro.query(index, s, t) for s, t in gate],
            "query_batch": repro.query_batch(index, gate),
            "query_from": [next(from_answers[s]) for s, _ in gate],
        },
    }
    if classify is not None:
        result["cases"] = dict(tally.cases)
        result["ext"] = dict(tally.ext)
        result["case_latency_ns"] = _case_probes(index, classify, spec["seed"], tracer)
    return result


def _cycle(index, rng, tally: _Tally, classify) -> None:
    import repro

    n = index.graph.n
    clock = time.perf_counter_ns
    work = pairs(rng, n, SINGLE_ROUND)
    if classify is not None:
        tally.cases.update(classify(s, t) for s, t in work)
        before = _ext_counters(index)
    errors = 0
    round_ns = array("q")
    started = clock()
    for s, t in work:
        began = clock()
        try:
            repro.query(index, s, t)
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            errors += 1
        round_ns.append(clock() - began)
    tally.add("single", len(work), errors, clock() - started, 1)
    tally.add_latencies(round_ns)
    if classify is not None:
        tally.ext.update(
            {key: value - before[key] for key, value in _ext_counters(index).items()}
        )

    batches = [(pairs(rng, n, BATCH_PAIRS),) for _ in range(BATCH_ROUND)]
    tally.add("batch", *_timed(lambda b: repro.query_batch(index, b), batches), BATCH_PAIRS)
    fans = [
        (rng.randrange(n), [rng.randrange(n) for _ in range(FROM_TARGETS)])
        for _ in range(FROM_ROUND)
    ]
    tally.add("from", *_timed(lambda s, ts: repro.query_from(index, s, ts), fans), FROM_TARGETS)


def _timed(op, calls) -> tuple[int, int, int]:
    """``(calls, failed calls, elapsed ns)`` of ``op(*args)`` over ``calls``."""
    errors = 0
    started = time.perf_counter_ns()
    for args in calls:
        try:
            op(*args)
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            errors += 1
    return len(calls), errors, time.perf_counter_ns() - started


def _ext_counters(index) -> dict:
    return {
        "hits": index.extension_cache_hits,
        "misses": index.extension_cache_misses,
        "core_probes": index.core_probes,
    }


def _classifier(index):
    """The 4-case dispatch of a pair, decided from outside the index."""
    representative = index.reduction.representative
    decomposition = index.decomposition
    position = decomposition.position

    def classify(s: int, t: int) -> str:
        rs, rt = representative[s], representative[t]
        if s == t or rs == rt:
            return "local"
        ps, pt = position[rs], position[rt]
        if ps is None and pt is None:
            return "case1"
        if ps is None or pt is None:
            return "case2"
        return "case4" if decomposition.same_tree(ps, pt) else "case3"

    return classify


def _case_probes(index, classify, seed: int, tracer: Tracer) -> dict:
    """Time ``CASE_PROBES`` pairs of every case, drawn per case, interleaved."""
    import repro

    decomposition = index.decomposition
    representative = index.reduction.representative
    core, trees = [], {}
    for v in range(index.graph.n):
        pos = decomposition.position[representative[v]]
        if pos is None:
            core.append(v)
        else:
            trees.setdefault(decomposition.root[pos], []).append(v)
    forest = [v for members in trees.values() for v in members]
    shared = [members for members in trees.values() if len(members) > 1]
    rng = stream(seed, "cases")
    draws = {}
    if core:
        draws["case1"] = lambda: (rng.choice(core), rng.choice(core))
    if core and forest:
        draws["case2"] = lambda: (rng.choice(core), rng.choice(forest))
    if forest:
        draws["case3"] = lambda: (rng.choice(forest), rng.choice(forest))
    if shared:
        draws["case4"] = lambda: tuple(rng.sample(rng.choice(shared), 2))
    probes = []
    for case, draw in draws.items():
        found = 0
        for _ in range(200 * CASE_PROBES):
            if found == CASE_PROBES:
                break
            s, t = draw()
            if classify(s, t) == case:
                probes.append((case, s, t))
                found += 1
    rng.shuffle(probes)
    latency: dict[str, list[int]] = {}
    clock = time.perf_counter_ns
    for case, s, t in probes:
        began = clock()
        repro.query(index, s, t)
        ended = clock()
        latency.setdefault(case, []).append(ended - began)
        tracer.record("kernels.query", began, ended, case=case)
    return latency


# ----------------------------------------------------------------------
# serve: DistanceServer over QueryEngine, default ServerConfig
# ----------------------------------------------------------------------


class TimedEngine:
    """Times each ``QueryEngine.query_batch`` call the server makes."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.calls: list[tuple[int, int, list]] = []

    def query_batch(self, batch):
        started = time.monotonic_ns()
        values = self.engine.query_batch(batch)
        self.calls.append((started, time.monotonic_ns(), [list(p) for p in batch]))
        return values

    def query_from(self, s, targets):
        return self.engine.query_from(s, targets)


def serve(spec: dict, tracer: Tracer) -> dict:
    from repro.serving import QueryEngine
    from repro.serving.server import DistanceServer, ServerConfig, serve_forever

    index, result = _open(spec, tracer)
    engine = QueryEngine(index)
    if tracer.enabled:
        engine = TimedEngine(engine)
    server = DistanceServer(engine, index.graph.n, ServerConfig())

    def ready(started) -> None:
        pending = Path(spec["ready"] + ".tmp")
        pending.write_text(json.dumps({"port": started.port}), encoding="utf-8")
        pending.rename(spec["ready"])

    asyncio.run(serve_forever(server, ready=ready))
    if tracer.enabled:
        result["calls"] = engine.calls
    return result


ROLES = {"build": build, "query": query, "serve": serve}


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    tracer = Tracer(spec.get("traced", False), parent=spec.get("parent_span"))
    try:
        result = ROLES[spec["role"]](spec, tracer)
    except Exception:  # noqa: BLE001 - reported to the parent via the exit code
        traceback.print_exc()
        return 1
    result["rss_mb"] = own_peak_rss_mb()
    result["spans"] = tracer.spans
    pending = Path(spec["result"] + ".tmp")
    pending.write_text(json.dumps(result), encoding="utf-8")
    pending.rename(spec["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
