"""perfbench: build, query and HTTP serving of the CT-Index, measured outside in.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cp100k --seed 1 [--seconds 14] [--trace 0|1]
    PYTHONPATH=src python -m perfbench --seed 1 [--workload W] [--trace]

Every workload runs the same stages on its own fixed graph, each
measured process fresh; the seed draws every request stream:

1. generate the graph, write it once as an edge list, and BFS it with the
   independent oracle from 20 seeded sources;
2. build processes (``read_edge_list`` -> ``repro.build(g, 20)`` ->
   ``compact`` -> ``repro.save(binary)``), each followed by a query
   process (``repro.load(mmap=True)``, a first query, then cycles of
   single pairs, 64-pair batches and 1x256 one-to-many operations);
3. a ``DistanceServer`` process, driven over HTTP by this process.

Before any number is printed the gates must pass: identical fingerprints
across builds, every gate answer equal to BFS on every access path, and
every HTTP answer equal to an in-process replay.  A failed gate prints
no metrics and exits 1.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and the metrics declared
in ``BENCHMARK.json`` (end-to-end ones, or per-layer ones with
``--trace 1``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import loadgen
from perfbench.oracle import GateError, bfs, check_answers, ids_digest, read_adjacency
from perfbench.spans import Tracer, self_times, span_cost_ns, write_jsonl
from perfbench.stats import fast_quartile, summarize
from perfbench.workloads import (
    BANDWIDTH,
    OPEN_LOOP_RPS,
    WORKLOADS,
    gate_pairs,
    pairs,
    plan_for,
    stream,
    write_edge_list,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
DEFAULT_OUT = ROOT / "perfbench" / "out"

#: Longest any one measured process may take.
CHILD_TIMEOUT_S = 120


class RunError(Exception):
    """A measured process failed; the run has no metrics."""


# ----------------------------------------------------------------------
# measured processes
# ----------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(ROOT)))
    return env


def _spec_paths(run_dir: Path, name: str) -> tuple[Path, Path]:
    return run_dir / f"{name}.spec.json", run_dir / f"{name}.result.json"


def run_child(run_dir: Path, name: str, spec: dict) -> dict:
    """Run one measured process to completion and return its result."""
    spec_path, result_path = _spec_paths(run_dir, name)
    spec = {**spec, "result": str(result_path)}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        completed = subprocess.run(
            [sys.executable, "-m", "perfbench.child", str(spec_path)],
            cwd=ROOT,
            env=_child_env(),
            stdout=sys.stderr,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{name} did not finish in {CHILD_TIMEOUT_S} s") from exc
    if completed.returncode != 0:
        raise RunError(f"{name} exited with code {completed.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def run_server(run_dir: Path, spec: dict, session) -> tuple[dict, object]:
    """Start the server process, run ``session(port)``, then drain it."""
    spec_path, result_path = _spec_paths(run_dir, "serve")
    ready = run_dir / "serve.ready"
    spec = {**spec, "result": str(result_path), "ready": str(ready)}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    process = subprocess.Popen(
        [sys.executable, "-m", "perfbench.child", str(spec_path)],
        cwd=ROOT,
        env=_child_env(),
        stdout=sys.stderr,
    )
    try:
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while not ready.exists():
            if process.poll() is not None:
                raise RunError(f"server exited with code {process.returncode}")
            if time.monotonic() > deadline:
                raise RunError("server did not become ready")
            time.sleep(0.02)
        port = json.loads(ready.read_text(encoding="utf-8"))["port"]
        outcome = session(port)
        process.send_signal(signal.SIGTERM)
        code = process.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0:
        raise RunError(f"server exited with code {code}")
    return json.loads(result_path.read_text(encoding="utf-8")), outcome


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------


def environment(seed: int) -> dict:
    """Where and how the numbers were made."""
    import repro
    from repro.serving.server import ServerConfig

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "repro": repro.__version__,
        "repro_path": str(Path(repro.__file__).resolve().parent),
        "seed": seed,
        "build_config": repro.BuildConfig(bandwidth=BANDWIDTH).to_dict(),
        "server_config": ServerConfig().as_dict(),
    }


def _git_sha() -> str | None:
    """The checkout's commit, when it is a git working tree of its own."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def run_workload(name: str, seed: int, seconds: float, *, traced: bool, smoke: bool, out: Path) -> dict:
    """One run of one workload; returns the run document (gates passed)."""
    workload = WORKLOADS[name]
    plan = plan_for(seconds, traced=traced, smoke=smoke)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_dir = out / f"{name}-s{seed}-t{int(traced)}-{stamp}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    tracer = Tracer(traced)
    started = time.perf_counter()
    document = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "smoke": smoke,
        "env": environment(seed),
    }
    try:
        with tracer.span("run", workload=name, seed=seed):
            stages = _stages(workload, seed, plan, traced, smoke, run_dir, tracer, document)
    finally:
        for bulky in ("graph.edges", "index.bin"):
            (run_dir / bulky).unlink(missing_ok=True)
    document["wall_s"] = time.perf_counter() - started
    spans = tracer.spans + [span for stage in stages for span in stage.get("spans", ())]
    if traced:
        document["trace_file"] = str(run_dir / "trace.jsonl")
        write_jsonl(spans, run_dir / "trace.jsonl")
    document["metrics"] = end_to_end(stages)
    if traced:
        document["metrics"].update(per_layer(stages, spans))
        document["metrics"]["trace.overhead_pct"] = _metric(
            len(spans) * span_cost_ns() / (document["wall_s"] * 1e9) * 100.0, "%", len(spans)
        )
    document["attempted"] = stages_attempted(stages)
    document["failed"] = stages_failed(stages)
    document["metrics"]["fail_frac"] = _metric(
        document["failed"] / document["attempted"], "ratio", document["attempted"]
    )
    (run_dir / "run.json").write_text(json.dumps(document, indent=1), encoding="utf-8")
    # Raw samples are summarized in run.json; keep them only for failed runs.
    for raw in run_dir.glob("*.result.json"):
        raw.unlink()
    return document


def _stages(workload, seed, plan, traced, smoke, run_dir, tracer, document) -> list[dict]:
    """Generate, gate, build and query in turn, serve; returns stage results."""
    import repro

    edges = run_dir / "graph.edges"
    snapshot = run_dir / "index.bin"
    with tracer.span("inputs"):
        graph = workload.generate(smoke=smoke)
        document["inputs"] = {
            "edges_sha256": write_edge_list(graph, edges),
            "generated_n": graph.n,
            "m": graph.m,
        }
        del graph
        ids, adjacency = read_adjacency(edges)
        n = len(ids)
        gate = gate_pairs(seed, n)
        document["inputs"]["gate_sha256"] = ids_digest(gate)
        distances = {s: bfs(adjacency, s) for s in {s for s, _ in gate}}
        expected = [distances[s][t] for s, t in gate]
        del adjacency, distances
        first_pair = pairs(stream(seed, "first"), n, 1)[0]
    document["inputs"]["n"] = n
    gates = document["gates"] = {"oracle_pairs": len(gate)}

    base = {"snapshot": str(snapshot), "first_pair": first_pair}
    builds, queries = [], []
    for i in range(plan.builds):
        traced_build = traced and i > 0
        with tracer.span("stage.build", rep=i) as parent:
            result = run_child(
                run_dir,
                f"build{i}",
                {
                    "role": "build",
                    "edges": str(edges),
                    "snapshot": str(snapshot),
                    "traced": traced_build,
                    "parent_span": parent,
                },
            )
        result["traced"] = traced_build
        builds.append(result)
        with tracer.span("stage.query", rep=i) as parent:
            queries.append(
                run_child(
                    run_dir,
                    f"query{i}",
                    {
                        **base,
                        "role": "query",
                        "seed": seed,
                        "rep": i,
                        "query_s": plan.query_s,
                        "gate_pairs": gate,
                        "traced": traced,
                        "parent_span": parent,
                    },
                )
            )
    _gate_builds(builds, ids_digest(ids), n, gates)
    for i, query in enumerate(queries):
        for path, answers in query["gate"].items():
            checked = check_answers(f"{path} (process {i})", gate, answers, expected)
            gates[f"oracle_{path}"] = gates.get(f"oracle_{path}", 0) + checked

    http_rng = stream(seed, "http")
    with tracer.span("stage.serve") as parent:
        serve, http = run_server(
            run_dir,
            {**base, "role": "serve", "traced": traced, "parent_span": parent},
            lambda port: asyncio.run(loadgen.drive(port, plan, http_rng, n, gate)),
        )
    gates["oracle_http"] = check_answers("http", gate, http["gate"], expected)
    with tracer.span("stage.replay"):
        gates["http_replay"] = _replay(repro.load(snapshot, mmap=True), http)
    serve["http"] = http
    if traced:
        answered = [r for r in http["open"] if r[6] is not None]
        serve["joined"] = loadgen.join_engine_calls(answered, serve["calls"])
        serve["spans"] = serve["spans"] + _serving_spans(serve, parent)
    return [
        {"stage": "build", "runs": builds, "spans": [s for b in builds for s in b["spans"]]},
        {"stage": "query", "runs": queries, "spans": [s for q in queries for s in q["spans"]],
         **_merge_queries(queries)},
        {"stage": "serve", **serve},
    ]


def _merge_queries(queries) -> dict:
    """Pool the samples and counts of every query process."""
    merged = {
        "latency_ns": [ns for q in queries for ns in q["latency_ns"]],
        "round_ns": {key: [ns for q in queries for ns in q["round_ns"][key]] for key in ("p50", "p99")},
        "rates": {kind: [r for q in queries for r in q["rates"][kind]] for kind in queries[0]["rates"]},
        "ops": dict(sum((Counter(q["ops"]) for q in queries), Counter())),
        "failed": sum(q["failed"] for q in queries),
    }
    if "cases" in queries[0]:
        merged["cases"] = sum((Counter(q["cases"]) for q in queries), Counter())
        merged["ext"] = sum((Counter(q["ext"]) for q in queries), Counter())
        merged["case_latency_ns"] = {}
        for q in queries:
            for case, values in q["case_latency_ns"].items():
                merged["case_latency_ns"].setdefault(case, []).extend(values)
    return merged


def _gate_builds(builds, oracle_ids: str, n: int, gates: dict) -> None:
    fingerprints = {build["fingerprint"] for build in builds}
    if len(fingerprints) != 1:
        raise GateError(f"index_fingerprint differs across {len(builds)} builds")
    for build in builds:
        if build["ids_digest"] != oracle_ids or build["n"] != n:
            raise GateError("read_edge_list's node ids disagree with the oracle's")
    reference = next(build for build in builds if not build["traced"])
    for build in builds:
        counts = build["layer_counts"]
        if counts is None:
            continue
        for key, value in reference["stats"].items():
            if counts[key] != value:
                raise GateError(
                    f"traced build counts {key}={counts[key]}, index.stats() says {value}"
                )
        gates["traced_counts_match_stats"] = True
    gates["fingerprint_builds"] = len(builds)
    gates["fingerprint"] = fingerprints.pop()


def _replay(index, http: dict) -> int:
    """Every HTTP answer must equal ``repro.query`` on the same snapshot."""
    import repro

    checked = 0
    for phase in ("warmup", "open", "closed"):
        for record in http[phase]:
            s, t, answer = record[4], record[5], record[6]
            if answer is None:
                continue
            if repro.query(index, s, t) != answer:
                raise GateError(f"HTTP answered dist({s}, {t}) = {answer}; replay disagrees")
            checked += 1
    return checked


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def _metric(
    value, unit: str, n: int, summary: dict | None = None, scale: float = 1.0,
    rounds: list | None = None,
) -> dict:
    """One metric; a latency also names the highest percentile with ten
    samples beyond it (``summary`` from ``stats.summarize``, in ``unit``
    after dividing by ``scale``), and one taken per round keeps the value
    of every round (in ``unit``), which ``run.json`` records."""
    metric = {"value": value, "unit": unit, "n": n}
    if rounds is not None:
        metric["rounds"] = rounds
    if summary is not None and summary["tail_pct"] is not None:
        metric["tail"] = {"pct": summary["tail_pct"], "value": summary["tail"] / scale}
    return metric


def _per_round(rounds: list, unit: str, n: int, better: str = "lower", **tail) -> dict:
    """A metric taken per round: the fast-side quartile of the rounds."""
    return _metric(fast_quartile(rounds, better), unit, n, rounds=rounds, **tail)


def _by_stage(stages) -> dict:
    return {stage["stage"]: stage for stage in stages}


def end_to_end(stages) -> dict:
    by = _by_stage(stages)
    builds = by["build"]["runs"]
    untraced = [build for build in builds if not build["traced"]]
    query, serve = by["query"], by["serve"]
    opens = [r["load_s"] + r["first_query_s"] for r in query["runs"] + [serve]]
    edge_loads = [build["load_s"] for build in builds]
    rss = (
        median([build["rss_mb"] for build in untraced]),
        median([q["rss_mb"] for q in query["runs"]]),
        serve["rss_mb"],
    )
    # Build, query and HTTP timings are taken per round (per build
    # process, per window of one second's requests in the open loop), and
    # each reports the quartile of its rounds on the fast side; see
    # ``stats.fast_quartile``.
    latency = summarize(query["latency_ns"])
    rounds = query["round_ns"]
    rates = query["rates"]
    http = serve["http"]
    opened = [r for r in http["open"] if r[6] is not None]
    http_latency = summarize([(r[3] - r[0]) / 1e6 for r in opened])
    http_windows = [
        summarize([(r[3] - r[0]) / 1e6 for r in window])
        for window in loadgen.windows(opened, OPEN_LOOP_RPS)
    ]
    closed_ok = sum(1 for r in http["closed"] if r[6] is not None)
    return {
        "setup_s": _metric(median(edge_loads) + median(opens), "s", len(edge_loads) + len(opens)),
        "build_s": _per_round([b["build_s"] for b in untraced], "s", len(untraced)),
        "peak_rss_mb": _metric(max(rss), "MB", len(untraced) + len(query["runs"]) + 1),
        # The snapshot records its build time as text, so sizes of
        # fingerprint-identical builds can differ by a few bytes.
        "index_bytes": _metric(
            median([b["index_bytes"] for b in untraced]), "bytes", len(untraced)
        ),
        "query_p50_us": _per_round([ns / 1e3 for ns in rounds["p50"]], "us", latency["n"]),
        "query_p99_us": _per_round(
            [ns / 1e3 for ns in rounds["p99"]], "us", latency["n"], summary=latency, scale=1e3
        ),
        "query_qps": _per_round(rates["single"], "1/s", len(rates["single"]), better="higher"),
        "batch_pairs_per_s": _per_round(rates["batch"], "1/s", len(rates["batch"]), better="higher"),
        "from_targets_per_s": _per_round(rates["from"], "1/s", len(rates["from"]), better="higher"),
        "http_p50_ms": _per_round([w["p50"] for w in http_windows], "ms", http_latency["n"]),
        "http_p99_ms": _per_round(
            [w["p99"] for w in http_windows], "ms", http_latency["n"], summary=http_latency
        ),
        "http_closed_rps": _metric(closed_ok / http["closed_s"], "1/s", len(http["closed"])),
    }


def per_layer(stages, spans) -> dict:
    by = _by_stage(stages)
    builds = by["build"]["runs"]
    traced = [build for build in builds if build["traced"]]
    own = self_times(spans)
    per_build: dict[str, list[float]] = {}
    for build in traced:
        for span in build["spans"]:
            per_build.setdefault(span["name"], []).append(own[span["id"]] / 1e9)
    layer_s = {name: median(values) for name, values in per_build.items()}
    counts = traced[0]["layer_counts"]
    query, serve = by["query"], by["serve"]
    opened = query["runs"] + [serve]
    metrics = {
        "graphs.load_s": _metric(median([b["load_s"] for b in traced]), "s", len(traced)),
        "graphs.reduction_s": _metric(layer_s["graphs.reduction"], "s", len(traced)),
        "graphs.reduced_n": _metric(counts["reduced_n"], "count", 1),
        "treedec.decompose_s": _metric(layer_s["treedec.decompose"], "s", len(traced)),
        "treedec.core_n": _metric(counts["core_n"], "count", 1),
        "treedec.core_m": _metric(counts["core_m"], "count", 1),
        "treedec.boundary": _metric(counts["boundary"], "count", 1),
        "treedec.core_weighted": _metric(counts["core_weighted"], "flag", 1),
        "core.forest_labels_s": _metric(layer_s["core.forest_labels"], "s", len(traced)),
        "core.tree_entries": _metric(counts["tree_entries"], "count", 1),
        "labeling.core_labels_s": _metric(layer_s["labeling.core_labels"], "s", len(traced)),
        "labeling.core_entries": _metric(counts["core_entries"], "count", 1),
        "labeling.psl_rounds": _metric(counts["psl_rounds"], "count", 1),
        "storage.compact_s": _metric(layer_s["storage.compact"], "s", len(traced)),
        "storage.save_s": _metric(layer_s["storage.save"], "s", len(traced)),
        "storage.load_mmap_s": _metric(median([q["load_s"] for q in opened]), "s", len(opened)),
        "kernels.first_query_s": _metric(
            median([q["first_query_s"] for q in opened]), "s", len(opened)
        ),
    }
    single = len(query["latency_ns"])  # recorded single queries
    for case in ("case1", "case2", "case3", "case4"):
        probes = query["case_latency_ns"].get(case, ())
        metrics[f"query.{case}_p50_us"] = _metric(
            summarize(probes)["p50"] / 1e3 if probes else 0.0, "us", len(probes)
        )
        metrics[f"query.{case}_share"] = _metric(
            query["cases"].get(case, 0) / single, "ratio", single
        )
    ext = query["ext"]
    lookups = ext["hits"] + ext["misses"]
    metrics["query.ext_cache_hit_rate"] = _metric(
        ext["hits"] / lookups if lookups else 0.0, "ratio", lookups
    )
    metrics["query.core_probes_per_query"] = _metric(
        ext["core_probes"] / single, "count", single
    )
    metrics.update(_serving_layers(serve))
    # Time inside the traced build that no layer span covers.
    metrics["trace.unattributed_s"] = _metric(layer_s["build"], "s", len(traced))
    return metrics


def _serving_layers(serve) -> dict:
    http, calls, joined = serve["http"], serve["calls"], serve["joined"]
    window_start = min(r[0] for r in http["open"])
    window_end = max(r[3] for r in http["open"])
    in_window = [c for c in calls if window_start <= c[0] and c[1] <= window_end]
    lag = summarize([(r[1] - r[0]) / 1e6 for r in http["open"]])
    to_engine = summarize([(call[0] - req[2]) / 1e6 for req, call in joined])
    engine = summarize([(call[1] - call[0]) / 1e6 for _, call in joined])
    from_engine = summarize([(req[3] - call[1]) / 1e6 for req, call in joined])
    busy = sum(c[1] - c[0] for c in in_window)
    batched = sum(len(c[2]) for c in in_window)
    return {
        "serving.client_lag_p99_ms": _metric(lag["p99"], "ms", lag["n"]),
        "serving.to_engine_ms": _metric(to_engine["p50"], "ms", to_engine["n"]),
        "serving.engine_ms": _metric(engine["p50"], "ms", engine["n"]),
        "serving.from_engine_ms": _metric(from_engine["p50"], "ms", from_engine["n"]),
        "serving.engine_calls": _metric(len(in_window), "count", len(in_window)),
        "serving.mean_batch_size": _metric(
            batched / len(in_window) if in_window else 0.0, "count", len(in_window)
        ),
        "serving.engine_busy_frac": _metric(
            busy / (window_end - window_start), "ratio", len(in_window)
        ),
    }


def _serving_spans(serve, stage_span: str) -> list[dict]:
    """Engine calls, and open-loop request spans with their split beneath."""
    recorder = Tracer(True, parent=stage_span)
    for start, end, batch in serve["calls"]:
        recorder.record("serving.query_batch", start, end, size=len(batch))
    joined = {id(req): call for req, call in serve["joined"]}
    for i, record in enumerate(serve["http"]["open"]):
        sent, received = record[2], record[3]
        request = f"open-{i}"
        span = recorder.record("http.request", sent, received, request=request)
        call = joined.get(id(record))
        if call is not None:
            recorder.record("serving.to_engine", sent, call[0], parent=span, request=request)
            recorder.record("serving.engine", call[0], call[1], parent=span, request=request)
            recorder.record("serving.from_engine", call[1], received, parent=span, request=request)
    return recorder.spans


def stages_attempted(stages) -> int:
    by = _by_stage(stages)
    query, http = by["query"], by["serve"]["http"]
    return (
        len(by["build"]["runs"])
        + len(query["runs"])
        + sum(query["ops"].values())
        + len(http["warmup"])
        + len(http["open"])
        + len(http["closed"])
        + len(http["gate"])
    )


def stages_failed(stages) -> int:
    by = _by_stage(stages)
    http = by["serve"]["http"]
    failed_http = sum(
        1 for phase in ("warmup", "open", "closed") for r in http[phase] if r[6] is None
    )
    return by["query"]["failed"] + failed_http + sum(1 for a in http["gate"] if a is None)


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def contract_line(document: dict, declared: dict) -> dict:
    """The final JSON line: exactly the declared metrics of this mode."""
    kind = "per_layer" if document["trace"] else "end_to_end"
    names = [metric["name"] for metric in declared[kind]]
    metrics = document["metrics"]
    missing = [name for name in names if name not in metrics]
    if missing:
        raise RunError(f"declared metrics not measured: {missing}")
    return {
        "correct": True,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
            for name in names
        },
    }


def report(document: dict) -> str:
    lines = [
        f"== perfbench {document['workload']} seed={document['seed']} "
        f"trace={document['trace']} seconds={document['seconds']} "
        f"wall={document['wall_s']:.1f}s ==",
        "env " + json.dumps({**document["env"], **document["inputs"]}, sort_keys=True),
        "gates " + json.dumps(document["gates"], sort_keys=True),
    ]
    for name, metric in document["metrics"].items():
        line = f"  {name:<30} {metric['value']:>16.6g} {metric['unit']:<6} n={metric['n']}"
        if "rounds" in metric:
            line += f" rounds={len(metric['rounds'])}"
        if "tail" in metric:
            line += f"  (p{metric['tail']['pct']:g} = {metric['tail']['value']:.6g})"
        lines.append(line)
    if document["trace"]:
        lines.append(f"trace {document['trace_file']}")
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds of the query and serve stages "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1 (or bare --trace): instrumented run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="1k-node graphs and short phases, for tests")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory that receives one sub-directory per run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(f"perfbench: {SRC / 'repro'} and {BENCHMARK} must exist", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated benchmark still stops the processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    status = 0
    for name in args.workload or sorted(WORKLOADS):
        try:
            document = run_workload(
                name, args.seed, seconds, traced=bool(args.trace), smoke=args.smoke,
                out=args.out,
            )
            line = contract_line(document, declared)
        except (GateError, RunError) as exc:
            print(f"perfbench {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            status = 1
            continue
        print(report(document), flush=True)
        print(json.dumps(line), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
