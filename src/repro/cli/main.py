"""``repro`` command-line tool.

Subcommands::

    repro stats GRAPH                     structural summary of an edge list
    repro build GRAPH -d 20 -o IDX.json   build and save a CT-Index (--workers N parallel)
    repro query IDX.json S T [S T ...]    answer distance queries
    repro find-bandwidth GRAPH --memory-mb 2
    repro generate DATASET -o GRAPH       dump a registry dataset
    repro bench EXPERIMENT                run one paper experiment driver
    repro serve IDX --port 8080           serve distance queries over HTTP (batched)
    repro serve IDX --dynamic             …accepting POST /mutate + /reindex (overlay)
    repro serve-bench GRAPH -d 20         cached vs uncached serving on a skewed stream
    repro server-bench GRAPH -d 20        HTTP load generator: RPS + p50/p99/p999
    repro build-bench GRAPH -d 20         serial vs parallel construction speedup
    repro storage-bench GRAPH -d 20       dict vs flat labels, JSON vs binary snapshots
    repro fleet-bench GRAPH -d 20         N-worker serving over one mapped snapshot
    repro dynamic-bench GRAPH -d 20       update throughput + latency under churn (verified)
    repro obs-bench GRAPH -d 20           observability overhead, recorded in BENCH_obs.json
    repro scale-bench --tiers cp-100k     construction trajectory per scale tier (gated)
    repro trace TRACE.jsonl               render a recorded span trace (tree + summary)
    repro datasets                        list the dataset registry

Observability: ``build`` and ``serve-bench`` accept ``--trace FILE``
(record per-phase / per-query spans to JSON lines — view with ``repro
trace FILE``), ``--metrics FILE`` (Prometheus-style text dump of the
metrics registry; ``-`` for stdout), and ``build`` also ``--profile
FILE`` (cProfile text report).  All three are off by default and cost
nothing when off.

``build`` writes either on-disk format (``--format json|binary``) and
either in-memory backend (``--backend dict|flat``); ``query``, ``path``
and ``audit`` detect the format by magic, so a saved index file is a
saved index file.

Exit status is 0 on success, 1 on a handled library error, 2 on bad
arguments (argparse convention).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from collections.abc import Sequence

from repro.core.config import CORE_ORDERS
from repro.exceptions import ConfigurationError, QueryError, ReproError
from repro.graphs.graph import INF
from repro.kernels import KERNEL_NAMES
from repro.labeling.base import HUB_BUILDERS, LABEL_BACKENDS


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


_BATCH_WINDOW_HELP = (
    "opt-in hold (ms) before a short micro-batch leaves; the default, 0, "
    "dispatches each micro-batch as soon as the engine is idle"
)


def _batch_window(args: argparse.Namespace) -> dict:
    """``--batch-window-ms`` when given, else ``ServerConfig``'s default."""
    if args.batch_window_ms is None:
        return {}
    return {"batch_window_ms": args.batch_window_ms}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CT-Index: distance labeling for core-periphery graphs (SIGMOD 2020 reproduction)",
    )
    sub = parser.add_subparsers(required=True)

    p_stats = sub.add_parser("stats", help="print a structural summary of an edge-list graph")
    p_stats.add_argument("graph", help="edge-list file (u v [w] per line)")
    p_stats.set_defaults(handler=_cmd_stats)

    p_build = sub.add_parser("build", help="build a CT-Index over an edge-list graph")
    p_build.add_argument("graph")
    p_build.add_argument(
        "-d",
        "--bandwidth",
        type=int,
        default=None,
        help="the paper's d (default: the --config document's, else 20)",
    )
    p_build.add_argument("-o", "--output", required=True, help="where to save the index")
    p_build.add_argument(
        "--config",
        default=None,
        metavar="CONFIG.JSON",
        help="BuildConfig document (BuildConfig.to_dict() as JSON); flags "
        "passed alongside must agree with it",
    )
    p_build.add_argument(
        "--no-reduction", action="store_true", help="skip the equivalence (twin) reduction"
    )
    p_build.add_argument(
        "--backend",
        choices=LABEL_BACKENDS,
        default=None,
        help="label storage of the built index: mutable dicts or CSR arrays "
        "(identical answers; flat is smaller in memory; default dict)",
    )
    p_build.add_argument(
        "--order",
        choices=CORE_ORDERS,
        default=None,
        help="core hub order: degree (default) or elimination (theory order)",
    )
    p_build.add_argument(
        "--core-backend",
        choices=HUB_BUILDERS,
        default=None,
        help="core labeling algorithm (identical labels; default pll)",
    )
    p_build.add_argument(
        "--kernel",
        choices=KERNEL_NAMES,
        default=None,
        help="NumPy vs pure-Python kernels for queries and vectorized "
        "construction (identical answers; default auto)",
    )
    p_build.add_argument(
        "--format",
        choices=("json", "binary"),
        default="json",
        help="on-disk format: inspectable JSON document or v5 binary "
        "snapshot (identical content; binary loads faster)",
    )
    p_build.add_argument(
        "--memory-mb", type=float, default=None, help="abort if the modeled size exceeds this"
    )
    p_build.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the parallel build (0 = one per CPU; "
        "any count builds the identical index)",
    )
    p_build.add_argument(
        "--chunked",
        action="store_true",
        help="load the edge list through the chunked out-of-core reader "
        "(identical graph; bounds parse-time memory on 10^5+ edge files)",
    )
    _add_obs_arguments(p_build, profile=True)
    p_build.set_defaults(handler=_cmd_build)

    p_query = sub.add_parser("query", help="answer distance queries from a saved index")
    p_query.add_argument("index")
    p_query.add_argument("nodes", nargs="+", type=int, help="pairs: s1 t1 s2 t2 ...")
    p_query.set_defaults(handler=_cmd_query)

    p_path = sub.add_parser("path", help="reconstruct a shortest path from a saved index")
    p_path.add_argument("index")
    p_path.add_argument("source", type=int)
    p_path.add_argument("target", type=int)
    p_path.set_defaults(handler=_cmd_path)

    p_find = sub.add_parser(
        "find-bandwidth", help="binary-search the smallest bandwidth fitting a memory limit"
    )
    p_find.add_argument("graph")
    p_find.add_argument("--memory-mb", type=float, required=True)
    p_find.set_defaults(handler=_cmd_find_bandwidth)

    p_gen = sub.add_parser("generate", help="write a registry dataset as an edge list")
    p_gen.add_argument("dataset")
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(handler=_cmd_generate)

    p_bench = sub.add_parser("bench", help="run one paper experiment driver")
    p_bench.add_argument("experiment", help="exp1..exp7, table1, lemma3, serving, ablation-*")
    p_bench.set_defaults(handler=_cmd_bench)

    p_srv = sub.add_parser(
        "serve",
        help="serve distance queries over HTTP from a saved index "
        "(micro-batched, with backpressure and a per-run audit record)",
    )
    p_srv.add_argument("snapshot", help="a saved index (JSON or binary snapshot)")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port", type=int, default=8080, help="0 binds an ephemeral port"
    )
    p_srv.add_argument(
        "--batch-window-ms",
        type=float,
        default=None,
        help=_BATCH_WINDOW_HELP,
    )
    p_srv.add_argument(
        "--batch-max",
        type=int,
        default=64,
        help="most pairs one micro-batch carries (default 64)",
    )
    p_srv.add_argument(
        "--queue-depth",
        type=int,
        default=1024,
        help="pending-query bound; beyond it requests get HTTP 429 (default 1024)",
    )
    p_srv.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds to let in-flight requests finish on shutdown (default 10)",
    )
    p_srv.add_argument(
        "--cache", type=int, default=None, help="pair-level LRU capacity (default off)"
    )
    p_srv.add_argument(
        "--kernel",
        choices=KERNEL_NAMES,
        default=None,
        help="query kernel of the served index (default: index default)",
    )
    p_srv.add_argument(
        "--workers",
        type=int,
        default=None,
        help="serve through an N-process ServingFleet instead of in-process "
        "(requires a binary snapshot)",
    )
    p_srv.add_argument(
        "--mmap",
        action="store_true",
        help="memory-map the snapshot (binary snapshots only)",
    )
    p_srv.add_argument(
        "--audit-dir",
        default=".",
        help="directory for artifact.json / eval_history.jsonl "
        "('-' disables the audit record; default: working directory)",
    )
    p_srv.add_argument(
        "--dynamic",
        action="store_true",
        help="wrap the index in a repro.dynamic.DeltaOverlayIndex and "
        "enable POST /mutate + /reindex (in-process engine only)",
    )
    p_srv.add_argument(
        "--reindex-threshold",
        type=int,
        default=None,
        help="auto-trigger a background rebuild once this many mutations "
        "are pending since the last swap (default: manual /reindex only)",
    )
    p_srv.add_argument(
        "--reindex-workers",
        type=int,
        default=None,
        help="worker processes for background rebuilds (0 = one per CPU)",
    )
    p_srv.set_defaults(handler=_cmd_serve)

    p_serve = sub.add_parser(
        "serve-bench",
        help="replay a skewed query stream through cached and uncached engines",
    )
    p_serve.add_argument("graph", help="edge-list file (u v [w] per line)")
    p_serve.add_argument("-d", "--bandwidth", type=int, default=20)
    p_serve.add_argument("--queries", type=int, default=2000)
    p_serve.add_argument(
        "--hot-fraction",
        type=float,
        default=0.9,
        help="fraction of queries drawn from the hot pair set (default 0.9)",
    )
    p_serve.add_argument(
        "--hot-pairs", type=int, default=16, help="size of the hot pair set"
    )
    p_serve.add_argument(
        "--cache", type=int, default=4096, help="pair-level LRU capacity"
    )
    p_serve.add_argument(
        "--kernel",
        choices=KERNEL_NAMES,
        default="auto",
        help="query kernel of the served index; 'numpy' builds the flat "
        "backend and requires the repro[fast] extra (default auto)",
    )
    p_serve.add_argument("--seed", type=int, default=12345)
    _add_obs_arguments(p_serve)
    p_serve.set_defaults(handler=_cmd_serve_bench)

    p_svbench = sub.add_parser(
        "server-bench",
        help="drive the HTTP front-end with concurrent clients, verifying "
        "answer identity, recording BENCH_serve.json",
    )
    p_svbench.add_argument("graph", help="edge-list file, or a registry dataset name")
    p_svbench.add_argument("-d", "--bandwidth", type=int, default=20)
    p_svbench.add_argument("--requests", type=int, default=2000)
    p_svbench.add_argument(
        "--concurrency",
        type=int,
        default=8,
        help="concurrent keep-alive client connections (default 8)",
    )
    p_svbench.add_argument(
        "--batch-window-ms",
        type=float,
        default=None,
        help=_BATCH_WINDOW_HELP,
    )
    p_svbench.add_argument(
        "--kernel",
        choices=KERNEL_NAMES,
        default=None,
        help="query kernel of the served index (default: index default)",
    )
    p_svbench.add_argument(
        "--audit-dir",
        default=None,
        help="keep the run's artifact.json / eval_history.jsonl here "
        "(default: a temporary directory)",
    )
    p_svbench.add_argument(
        "-o",
        "--output",
        default="BENCH_serve.json",
        help="serve history file to append to ('-' skips recording)",
    )
    p_svbench.set_defaults(handler=_cmd_server_bench)

    p_bbench = sub.add_parser(
        "build-bench",
        help="time serial vs parallel index construction and record BENCH_build.json",
    )
    p_bbench.add_argument("graph", help="edge-list file, or a registry dataset name")
    p_bbench.add_argument("-d", "--bandwidth", type=int, default=20)
    p_bbench.add_argument(
        "--workers",
        default="1,2,4",
        help="comma-separated worker counts; the first is the baseline (default 1,2,4)",
    )
    p_bbench.add_argument(
        "-o",
        "--output",
        default="BENCH_build.json",
        help="speedup history file to append to ('-' skips recording)",
    )
    p_bbench.set_defaults(handler=_cmd_build_bench)

    p_sbench = sub.add_parser(
        "storage-bench",
        help="compare dict vs flat label storage and JSON vs binary snapshots, "
        "recording BENCH_storage.json",
    )
    p_sbench.add_argument("graph", help="edge-list file, or a registry dataset name")
    p_sbench.add_argument("-d", "--bandwidth", type=int, default=20)
    p_sbench.add_argument("--queries", type=int, default=2000)
    p_sbench.add_argument(
        "-o",
        "--output",
        default="BENCH_storage.json",
        help="storage history file to append to ('-' skips recording)",
    )
    p_sbench.set_defaults(handler=_cmd_storage_bench)

    p_dbench = sub.add_parser(
        "dynamic-bench",
        help="update throughput + query latency under churn through a "
        "delta overlay, verified against BFS truth every batch",
    )
    p_dbench.add_argument(
        "graph", help="edge-list file or registry dataset name"
    )
    p_dbench.add_argument("-d", "--bandwidth", type=int, default=20)
    p_dbench.add_argument(
        "--batches", type=int, default=6, help="mutation batches (default 6)"
    )
    p_dbench.add_argument(
        "--batch-size",
        type=int,
        default=24,
        help="insert/delete ops per batch (default 24)",
    )
    p_dbench.add_argument(
        "--queries",
        type=int,
        default=200,
        help="queries timed after each batch (default 200)",
    )
    p_dbench.add_argument("--seed", type=int, default=0)
    p_dbench.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the rebuild phase (0 = one per CPU)",
    )
    p_dbench.add_argument(
        "--output",
        default="BENCH_dynamic.json",
        help="bench history file ('-' disables recording)",
    )
    p_dbench.set_defaults(handler=_cmd_dynamic_bench)

    p_scale = sub.add_parser(
        "scale-bench",
        help="build the 10^3..10^6-node scale trajectory (core-periphery "
        "and R-MAT tiers), gated on fingerprint/BFS identity, recording "
        "BENCH_scale.json",
    )
    p_scale.add_argument(
        "--tiers",
        nargs="+",
        default=None,
        metavar="TIER",
        help="tier names to run (default: all); see repro.bench.scale_bench",
    )
    p_scale.add_argument(
        "--max-n",
        type=int,
        default=None,
        help="skip tiers whose target node count exceeds this",
    )
    p_scale.add_argument(
        "--config",
        default=None,
        metavar="CONFIG.JSON",
        help="BuildConfig document to measure (default: flat backend, "
        "psl core, auto kernel)",
    )
    p_scale.add_argument(
        "--workers",
        nargs="+",
        type=int,
        default=None,
        metavar="N",
        help="sweep these worker counts over every tier (one entry per "
        "count; entries after a workers=1 build record speedup_vs_serial)",
    )
    p_scale.add_argument(
        "-o",
        "--output",
        default="BENCH_scale.json",
        help="scale history file to append to ('-' skips recording)",
    )
    p_scale.set_defaults(handler=_cmd_scale_bench)

    p_fbench = sub.add_parser(
        "fleet-bench",
        help="serve one mapped snapshot from N worker processes, verifying "
        "answer and fingerprint identity, recording BENCH_fleet.json",
    )
    p_fbench.add_argument("graph", help="edge-list file, or a registry dataset name")
    p_fbench.add_argument("-d", "--bandwidth", type=int, default=20)
    p_fbench.add_argument("--queries", type=int, default=2000)
    p_fbench.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[1, 2],
        help="worker counts to sweep (default: 1 2)",
    )
    p_fbench.add_argument(
        "--kernel",
        choices=KERNEL_NAMES,
        default=None,
        help="query kernel of every worker engine (default: index default)",
    )
    p_fbench.add_argument(
        "-o",
        "--output",
        default="BENCH_fleet.json",
        help="fleet history file to append to ('-' skips recording)",
    )
    p_fbench.set_defaults(handler=_cmd_fleet_bench)

    p_obench = sub.add_parser(
        "obs-bench",
        help="measure observability overhead (disabled vs enabled), "
        "recording BENCH_obs.json",
    )
    p_obench.add_argument("graph", help="edge-list file, or a registry dataset name")
    p_obench.add_argument("-d", "--bandwidth", type=int, default=20)
    p_obench.add_argument("--queries", type=int, default=2000)
    p_obench.add_argument(
        "--kernel",
        choices=KERNEL_NAMES,
        default="auto",
        help="query kernel of the measured index (default auto)",
    )
    p_obench.add_argument(
        "-o",
        "--output",
        default="BENCH_obs.json",
        help="overhead history file to append to ('-' skips recording)",
    )
    p_obench.set_defaults(handler=_cmd_obs_bench)

    p_trace = sub.add_parser(
        "trace", help="render a JSON-lines span trace recorded with --trace"
    )
    p_trace.add_argument("trace", help="trace file written by a --trace run")
    p_trace.add_argument(
        "--max-spans",
        type=int,
        default=200,
        help="cap on tree lines printed (the summary always covers everything)",
    )
    p_trace.set_defaults(handler=_cmd_trace)

    p_list = sub.add_parser("datasets", help="list the synthetic dataset registry")
    p_list.set_defaults(handler=_cmd_datasets)

    p_audit = sub.add_parser("audit", help="self-check a saved index against its graph")
    p_audit.add_argument("index")
    p_audit.add_argument("--samples", type=int, default=200)
    p_audit.set_defaults(handler=_cmd_audit)

    p_compare = sub.add_parser(
        "compare", help="build several methods over one graph and print the lineup"
    )
    p_compare.add_argument("graph")
    p_compare.add_argument(
        "--methods",
        default="PSL+,PSL*,CT-20,CT-100",
        help="comma-separated method names (PSL+, PSL*, PLL, PSL, H2H, CT-<d>, CD-<d>)",
    )
    p_compare.add_argument("--queries", type=int, default=1000)
    p_compare.set_defaults(handler=_cmd_compare)

    return parser


def _add_obs_arguments(parser: argparse.ArgumentParser, *, profile: bool = False) -> None:
    """Attach the shared observability flags to a subcommand parser."""
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="record spans to FILE as JSON lines (view with `repro trace FILE`)",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="write a Prometheus-style text dump of the metrics registry "
        "to FILE ('-' for stdout)",
    )
    if profile:
        parser.add_argument(
            "--profile",
            metavar="FILE",
            default=None,
            help="run under cProfile and write the cumulative-time report to FILE",
        )


class _ObsSession:
    """Observability lifecycle for one CLI command.

    Enables instrumentation only when a flag asks for it, and writes
    the requested artifacts on :meth:`finish` — so the default CLI path
    stays on the no-op instrumentation.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.trace_path = getattr(args, "trace", None)
        self.metrics_path = getattr(args, "metrics", None)
        self.profile_path = getattr(args, "profile", None)
        self.active = bool(self.trace_path or self.metrics_path)
        self._profiler = None
        if self.active:
            import repro.obs as obs

            obs.enable()
        if self.profile_path:
            import cProfile

            self._profiler = cProfile.Profile()
            self._profiler.enable()

    def finish(self) -> None:
        if self._profiler is not None:
            from repro.obs.profiling import ProfileReport

            self._profiler.disable()
            report = ProfileReport(self._profiler)
            with open(self.profile_path, "w", encoding="utf-8") as handle:
                handle.write(report.text())
            print(f"profile -> {self.profile_path}")
        if not self.active:
            return
        import repro.obs as obs

        tracer = obs.disable()
        if self.trace_path and tracer is not None:
            from repro.obs.export import write_trace

            write_trace(tracer, self.trace_path)
            print(f"trace: {len(tracer.finished)} spans -> {self.trace_path}")
        if self.metrics_path:
            text = obs.registry().render_prometheus()
            if self.metrics_path == "-":
                print(text, end="")
            else:
                with open(self.metrics_path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                print(f"metrics -> {self.metrics_path}")


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.graphs.io import read_edge_list
    from repro.graphs.statistics import summarize

    graph, _ = read_edge_list(args.graph)
    summary = summarize(graph)
    for key, value in summary.as_row().items():
        print(f"{key:16s} {value}")
    return 0


def _resolve_build_config(args: argparse.Namespace):
    """Merge ``--config`` with explicit build flags into one BuildConfig.

    Each flag's ``dest`` is the ``BuildConfig`` field it sets.  Flags
    default to ``None`` (= not passed) so only knobs the user actually
    spelled out participate; a flag that disagrees with the config
    document raises ConfigurationError (see
    :func:`repro.core.config.resolve_build_config`).  Without either,
    ``-d`` defaults to ``BuildConfig``'s bandwidth.
    """
    from repro.core.config import BuildConfig, resolve_build_config

    config = None
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = BuildConfig.from_dict(json.load(handle))
    explicit = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(BuildConfig)
        if getattr(args, field.name, None) is not None
    }
    # store_true flags can't distinguish default from explicit False, so
    # --no-reduction only participates when actually raised.
    if args.no_reduction:
        explicit["use_equivalence_reduction"] = False
    bandwidth = explicit.pop("bandwidth", None)
    if bandwidth is None and config is None:
        bandwidth = BuildConfig.bandwidth
    return resolve_build_config(bandwidth, config, explicit)


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.core.ct_index import CTIndex
    from repro.core.serialization import save_ct_index, save_ct_index_binary
    from repro.graphs.io import read_edge_list, read_edge_list_chunked
    from repro.labeling.base import MemoryBudget

    config = _resolve_build_config(args)
    if args.chunked:
        graph, _ = read_edge_list_chunked(args.graph)
    else:
        graph, _ = read_edge_list(args.graph)
    budget = (
        MemoryBudget.from_megabytes(args.memory_mb) if args.memory_mb is not None else None
    )
    session = _ObsSession(args)
    try:
        index = CTIndex.build(graph, config=config, budget=budget)
    finally:
        session.finish()
    if args.format == "binary":
        save_ct_index_binary(index, args.output)
    else:
        save_ct_index(index, args.output)
    stats = index.stats()
    workers = config.workers
    schedule = "" if workers in (None, 1) else f" ({workers or 'auto'} workers)"
    print(
        f"built CT-{config.bandwidth} on n={graph.n} m={graph.m}: "
        f"{stats.entries} entries ({stats.megabytes:.3f} MB modeled) "
        f"in {stats.build_seconds:.2f}s{schedule} -> {args.output} [{args.format}]"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.core.serialization import load_ct_index

    if len(args.nodes) % 2 != 0:
        print("error: provide an even number of node ids (s t pairs)", file=sys.stderr)
        return 2
    index = load_ct_index(args.index)
    started = time.perf_counter()
    for i in range(0, len(args.nodes), 2):
        s, t = args.nodes[i], args.nodes[i + 1]
        distance = index.distance(s, t)
        text = "unreachable" if distance == INF else str(distance)
        print(f"dist({s}, {t}) = {text}")
    elapsed = time.perf_counter() - started
    print(f"({len(args.nodes) // 2} queries in {elapsed * 1e3:.2f} ms)")
    return 0


def _cmd_path(args: argparse.Namespace) -> int:
    from repro.core.serialization import load_ct_index
    from repro.paths import path_length, shortest_path

    index = load_ct_index(args.index)
    path = shortest_path(index, index.graph, args.source, args.target)
    if path is None:
        print(f"{args.source} cannot reach {args.target}")
        return 0
    print(" -> ".join(str(v) for v in path))
    print(f"length {path_length(index.graph, path)} over {len(path) - 1} edges")
    return 0


def _cmd_find_bandwidth(args: argparse.Namespace) -> int:
    from repro.core.bandwidth import find_bandwidth
    from repro.graphs.io import read_edge_list

    graph, _ = read_edge_list(args.graph)
    result = find_bandwidth(graph, int(args.memory_mb * 1e6))
    print(f"smallest feasible bandwidth: d = {result.bandwidth}")
    print(f"search took {result.seconds:.2f}s over {len(result.probes)} construction probes:")
    for probe in result.probes:
        verdict = "fits" if probe.feasible else "OM"
        print(
            f"  d={probe.bandwidth:<6d} {verdict:4s} "
            f"modeled={probe.modeled_bytes / 1e6:.3f} MB in {probe.seconds:.2f}s"
        )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.bench.datasets import dataset_spec, load_dataset
    from repro.graphs.io import write_edge_list

    spec = dataset_spec(args.dataset)
    graph = load_dataset(args.dataset)
    write_edge_list(
        graph, args.output, header=f"synthetic analogue of {spec.paper_name} (seed {spec.seed})"
    )
    print(f"wrote {args.output}: n={graph.n} m={graph.m}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.experiments import run_experiment

    try:
        _, text = run_experiment(args.experiment)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serving.audit import fingerprint_sha256
    from repro.serving.server import DistanceServer, ServerConfig, serve_forever

    config = ServerConfig(
        host=args.host,
        port=args.port,
        **_batch_window(args),
        batch_max_size=args.batch_max,
        max_queue_depth=args.queue_depth,
        drain_timeout_s=args.drain_timeout,
        audit_dir=None if args.audit_dir == "-" else args.audit_dir,
    )
    fleet = None
    reindexer = None
    try:
        if args.workers is not None and args.workers > 1:
            if args.dynamic:
                raise ConfigurationError(
                    "--dynamic serves through the in-process engine; "
                    "it cannot be combined with a --workers fleet"
                )
            from repro.serving.fleet import ServingFleet

            fleet = ServingFleet(
                args.snapshot,
                workers=args.workers,
                kernel=args.kernel,
                cache_capacity=args.cache,
            )
            engine = fleet
            n = fleet.index.graph.n
            digest = fleet.verify()
            backend_note = f"{args.workers}-worker fleet"
        else:
            from repro.core.serialization import load_ct_index
            from repro.serving.engine import QueryEngine

            index = load_ct_index(args.snapshot, mmap=args.mmap)
            digest = fingerprint_sha256(index)
            if args.dynamic:
                from repro.dynamic import BackgroundReindexer, DeltaOverlayIndex

                index = DeltaOverlayIndex(index)
                reindexer = BackgroundReindexer(
                    index,
                    workers=args.reindex_workers,
                    auto_threshold=args.reindex_threshold,
                ).start()
            engine = QueryEngine(
                index, kernel=args.kernel, cache_capacity=args.cache
            )
            n = index.graph.n if not args.dynamic else index.n
            backend_note = (
                "in-process engine (dynamic)"
                if args.dynamic
                else "in-process engine"
            )
        server = DistanceServer(
            engine,
            n=n,
            config=config,
            snapshot_path=args.snapshot,
            fingerprint=digest,
            reindexer=reindexer,
        )

        def announce(started: DistanceServer) -> None:
            host, port = started.address
            dynamic_routes = " /mutate /reindex" if args.dynamic else ""
            print(
                f"serving {args.snapshot} (n={n}, {backend_note}) on "
                f"http://{host}:{port} — POST /query /query/batch "
                f"/query/from{dynamic_routes}, GET /healthz /metrics "
                f"/stats; SIGTERM drains gracefully"
            )

        try:
            report = asyncio.run(serve_forever(server, ready=announce))
        except KeyboardInterrupt:
            # SIGINT before the loop's handler was armed (startup race).
            report = {"clean": True, "inflight_at_close": 0}
        drained = "clean drain" if report.get("clean") else "drain timed out"
        print(f"server stopped ({drained})")
        if server.artifact_path is not None:
            print(f"audit record -> {server.artifact_path}")
    finally:
        if reindexer is not None:
            reindexer.stop()
        if fleet is not None:
            fleet.shutdown()
    return 0


def _cmd_server_bench(args: argparse.Namespace) -> int:
    import os

    from repro.bench.datasets import dataset_names, load_dataset
    from repro.bench.reporting import format_table
    from repro.bench.server_bench import record_server_entry, server_bench_result
    from repro.graphs.io import read_edge_list

    if args.graph in dataset_names() and not os.path.exists(args.graph):
        name = args.graph
        graph = load_dataset(name)
    else:
        name = args.graph
        graph, _ = read_edge_list(args.graph)
    result = server_bench_result(
        graph,
        args.bandwidth,
        name=name,
        requests=args.requests,
        concurrency=args.concurrency,
        **_batch_window(args),
        kernel=args.kernel,
        audit_dir=args.audit_dir,
    )
    print(
        format_table(
            [result.row()],
            [
                "dataset",
                "requests",
                "conc",
                "rps",
                "p50_us",
                "p99_us",
                "p999_us",
                "mean_batch",
                "verified",
            ],
            title=(
                f"server-bench: CT-{args.bandwidth} on {name} "
                f"(n={graph.n} m={graph.m}), {args.requests} requests over "
                f"{args.concurrency} connections"
            ),
        )
    )
    print(
        f"micro-batching: {result.batches} batches, mean size "
        f"{result.mean_batch_size:.2f} (max {result.max_batch_size}); "
        f"answers verified against direct QueryEngine: {result.verified}"
    )
    if args.audit_dir is not None:
        print(f"audit record -> {os.path.join(args.audit_dir, 'artifact.json')}")
    if args.output != "-":
        record_server_entry(result, args.output)
        print(f"recorded entry -> {args.output}")
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_table
    from repro.bench.workloads import skewed_pairs
    from repro.core.ct_index import CTIndex
    from repro.graphs.io import read_edge_list
    from repro.serving.bench import serve_bench_rows

    if not 0.0 <= args.hot_fraction <= 1.0:
        raise QueryError(f"--hot-fraction {args.hot_fraction} outside [0, 1]")
    graph, _ = read_edge_list(args.graph)
    # The numpy kernel reads CSR arrays, so an explicit request selects
    # the flat backend; otherwise keep the historical dict-backend build.
    backend = "flat" if args.kernel == "numpy" else "dict"
    index = CTIndex.build(graph, args.bandwidth, backend=backend, kernel=args.kernel)
    workload = skewed_pairs(
        graph,
        args.queries,
        seed=args.seed,
        hot_fraction=args.hot_fraction,
        hot_pairs=args.hot_pairs,
    )
    session = _ObsSession(args)
    try:
        rows = serve_bench_rows(index, workload.pairs, cache_capacity=args.cache)
    finally:
        session.finish()
    print(
        format_table(
            rows,
            [
                "config",
                "queries",
                "mean_us",
                "p95_us",
                "core_probes",
                "ext_hit_rate",
                "pair_hit_rate",
            ],
            title=(
                f"serve-bench: CT-{args.bandwidth} on n={graph.n} m={graph.m}, "
                f"{args.queries} queries ({args.hot_fraction:.0%} hot), "
                f"kernel={index.kernel}"
            ),
        )
    )
    uncached = next(r for r in rows if r["config"] == "uncached")
    cached = next(r for r in rows if r["config"] == "ext-cache")
    if uncached["core_probes"]:
        saved = 1 - cached["core_probes"] / uncached["core_probes"]
        print(
            f"extension cache removed {saved:.0%} of core-label probes "
            f"({uncached['core_probes']} -> {cached['core_probes']})"
        )
    return 0


def _cmd_build_bench(args: argparse.Namespace) -> int:
    import os

    from repro.bench.build_bench import build_bench_rows, record_entry
    from repro.bench.datasets import dataset_names, load_dataset
    from repro.bench.reporting import format_table
    from repro.graphs.io import read_edge_list

    try:
        worker_counts = tuple(int(w) for w in args.workers.split(",") if w.strip())
    except ValueError:
        print(f"error: --workers {args.workers!r} is not a comma-separated int list",
              file=sys.stderr)
        return 2
    if not worker_counts:
        print("error: --workers needs at least one count", file=sys.stderr)
        return 2
    if args.graph in dataset_names() and not os.path.exists(args.graph):
        name = args.graph
        graph = load_dataset(name)
    else:
        name = args.graph
        graph, _ = read_edge_list(args.graph)
    result = build_bench_rows(
        graph, args.bandwidth, worker_counts=worker_counts, name=name
    )
    print(
        format_table(
            result.rows,
            ["workers", "build_s", "speedup", "entries", "identical"],
            title=(
                f"build-bench: CT-{args.bandwidth} on {name} "
                f"(n={graph.n} m={graph.m})"
            ),
        )
    )
    print(f"best parallel speedup over baseline: {result.best_speedup:.2f}x")
    if args.output != "-":
        record_entry(result, args.output)
        print(f"recorded entry -> {args.output}")
    return 0


def _cmd_storage_bench(args: argparse.Namespace) -> int:
    import os

    from repro.bench.datasets import dataset_names, load_dataset
    from repro.bench.reporting import format_table
    from repro.bench.storage_bench import record_storage_entry, storage_bench_result
    from repro.graphs.io import read_edge_list

    if args.graph in dataset_names() and not os.path.exists(args.graph):
        name = args.graph
        graph = load_dataset(name)
    else:
        name = args.graph
        graph, _ = read_edge_list(args.graph)
    result = storage_bench_result(
        graph, args.bandwidth, name=name, queries=args.queries
    )
    print(
        format_table(
            [result.row()],
            [
                "dataset",
                "n",
                "entries",
                "dict_kb",
                "flat_kb",
                "resident_x",
                "json_ms",
                "bin_ms",
                "load_x",
                "verified",
            ],
            title=(
                f"storage-bench: CT-{args.bandwidth} on {name} "
                f"(n={graph.n} m={graph.m})"
            ),
        )
    )
    print(
        f"resident label bytes: {result.resident_reduction:.2f}x smaller flat; "
        f"load: {result.load_speedup:.2f}x faster binary"
    )
    if args.output != "-":
        record_storage_entry(result, args.output)
        print(f"recorded entry -> {args.output}")
    return 0


def _cmd_scale_bench(args: argparse.Namespace) -> int:
    from repro.core.config import BuildConfig
    from repro.bench.scale_bench import DEFAULT_CONFIG, run_scale_bench

    config = DEFAULT_CONFIG
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = BuildConfig.from_dict(json.load(handle))
    output = None if args.output == "-" else args.output
    entries, text = run_scale_bench(
        args.tiers,
        config=config,
        workers=args.workers,
        max_n=args.max_n,
        output=output,
    )
    print(text)
    if output is not None:
        print(f"recorded {len(entries)} entries -> {output}")
    return 0


def _cmd_dynamic_bench(args: argparse.Namespace) -> int:
    import os

    from repro.bench.datasets import dataset_names, load_dataset
    from repro.bench.dynamic_bench import (
        dynamic_bench_result,
        record_dynamic_entry,
    )
    from repro.bench.reporting import format_table
    from repro.graphs.io import read_edge_list

    if args.graph in dataset_names() and not os.path.exists(args.graph):
        name = args.graph
        graph = load_dataset(name)
    else:
        name = args.graph
        graph, _ = read_edge_list(args.graph)
    result = dynamic_bench_result(
        graph,
        args.bandwidth,
        name=name,
        batches=args.batches,
        batch_size=args.batch_size,
        queries_per_batch=args.queries,
        seed=args.seed,
        workers=args.workers,
    )
    print(
        format_table(
            [result.row()],
            [
                "dataset",
                "n",
                "mutations",
                "upd_per_s",
                "q_p50_us",
                "q_p99_us",
                "rebuild_s",
                "replayed",
                "verified",
            ],
            title=(
                f"dynamic-bench: CT-{args.bandwidth} on {name} "
                f"(n={graph.n} m={graph.m})"
            ),
        )
    )
    print(
        f"{result.mutations_applied} mutations at "
        f"{result.updates_per_second:.0f}/s; query p99 under churn "
        f"{result.query_latency_us['p99']:.0f}µs; every answer verified "
        f"against ground truth ({result.verified_answers} checks)"
    )
    if args.output != "-":
        record_dynamic_entry(result, args.output)
        print(f"recorded entry -> {args.output}")
    return 0


def _cmd_fleet_bench(args: argparse.Namespace) -> int:
    import os

    from repro.bench.datasets import dataset_names, load_dataset
    from repro.bench.fleet_bench import fleet_bench_result, record_fleet_entry
    from repro.bench.reporting import format_table
    from repro.graphs.io import read_edge_list

    if args.graph in dataset_names() and not os.path.exists(args.graph):
        name = args.graph
        graph = load_dataset(name)
    else:
        name = args.graph
        graph, _ = read_edge_list(args.graph)
    result = fleet_bench_result(
        graph,
        args.bandwidth,
        name=name,
        queries=args.queries,
        worker_counts=tuple(args.workers),
        kernel=args.kernel,
    )
    print(
        format_table(
            result.rows(),
            ["dataset", "workers", "qps", "speedup_x", "worker_rss_kb", "verified"],
            title=(
                f"fleet-bench: CT-{args.bandwidth} on {name} "
                f"(n={graph.n} m={graph.m}), {args.queries} queries"
            ),
        )
    )
    print(
        f"snapshot: {result.snapshot_bytes} bytes; load: "
        f"{result.load_speedup:.2f}x faster mapped "
        f"({result.load['copy_s'] * 1e3:.1f} ms copy vs "
        f"{result.load['mmap_s'] * 1e3:.1f} ms mmap)"
    )
    if args.output != "-":
        record_fleet_entry(result, args.output)
        print(f"recorded entry -> {args.output}")
    return 0


def _cmd_obs_bench(args: argparse.Namespace) -> int:
    import os

    from repro.bench.datasets import dataset_names, load_dataset
    from repro.bench.obs_bench import obs_bench_result, record_obs_entry
    from repro.bench.reporting import format_table
    from repro.graphs.io import read_edge_list

    if args.graph in dataset_names() and not os.path.exists(args.graph):
        name = args.graph
        graph = load_dataset(name)
    else:
        name = args.graph
        graph, _ = read_edge_list(args.graph)
    result = obs_bench_result(
        graph, args.bandwidth, name=name, queries=args.queries, kernel=args.kernel
    )
    print(
        format_table(
            result.rows,
            ["config", "queries", "total_ms", "mean_us"],
            title=(
                f"obs-bench: CT-{args.bandwidth} on {name} "
                f"(n={graph.n} m={graph.m}), {args.queries} queries, "
                f"kernel={result.kernel}"
            ),
        )
    )
    print(
        f"enabled-tracing overhead: {result.overhead:+.1%} "
        f"(answers identical: {result.identical})"
    )
    print("traced build phases (by total time):")
    for phase in result.phases[:10]:
        print(
            f"  {phase['name']:24s} x{phase['count']:<4d} "
            f"{phase['total_ms']:9.2f} ms  (mean {phase['mean_us']:.0f} us)"
        )
    if args.output != "-":
        record_obs_entry(result, args.output)
        print(f"recorded entry -> {args.output}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import format_trace_tree, read_trace, summarize_trace

    records = read_trace(args.trace)
    if not records:
        print(f"{args.trace}: empty trace")
        return 0
    print(format_trace_tree(records, max_spans=args.max_spans))
    print()
    rows = summarize_trace(records)
    print(f"{'span':28s} {'count':>7s} {'total_ms':>10s} {'mean_us':>10s} {'max_us':>10s}")
    for row in rows:
        print(
            f"{row['name']:28s} {row['count']:7d} {row['total_ms']:10.2f} "
            f"{row['mean_us']:10.1f} {row['max_us']:10.1f}"
        )
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.core.serialization import load_ct_index
    from repro.core.validation import audit_ct_index

    index = load_ct_index(args.index)
    report = audit_ct_index(index, samples=args.samples)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_table
    from repro.bench.runner import build_method, measure_query_seconds
    from repro.bench.workloads import random_pairs
    from repro.graphs.io import read_edge_list

    graph, _ = read_edge_list(args.graph)
    workload = random_pairs(graph, args.queries, seed=12345)
    rows = []
    for method in (m.strip() for m in args.methods.split(",") if m.strip()):
        index = build_method(method, graph)
        rows.append(
            {
                "method": method,
                "entries": index.size_entries(),
                "size_mb": round(index.size_bytes() / 1e6, 3),
                "index_s": round(index.build_seconds, 2),
                "query_s": f"{measure_query_seconds(index, workload):.2e}",
            }
        )
    print(format_table(rows, ["method", "entries", "size_mb", "index_s", "query_s"]))
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.bench.datasets import dataset_names, dataset_spec, load_dataset

    for name in dataset_names():
        spec = dataset_spec(name)
        graph = load_dataset(name)
        print(
            f"{name:8s} {spec.kind:9s} n={graph.n:<7d} m={graph.m:<8d} "
            f"(stands in for {spec.paper_name}: n={spec.paper_nodes:,}, m={spec.paper_edges:,})"
        )
    return 0


if __name__ == "__main__":  # allow `python -m repro.cli.main` without installing
    sys.exit(main())
