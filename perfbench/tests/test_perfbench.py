"""Tests of the benchmark itself: output contract, gates, trace, seeds.

Run with ``python -m pytest perfbench/tests -q`` from the repository
root.  The smoke runs use 1k-node graphs and two-second phases.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest

from perfbench import compare
from perfbench.child import measure_queries
from perfbench.oracle import GateError, bfs, check_answers, read_adjacency
from perfbench.spans import Tracer, read_jsonl, self_times
from perfbench.stats import fast_quartile, summarize, tail_percentile
from perfbench.workloads import WORKLOADS, gate_pairs, pairs, stream, write_edge_list

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@lru_cache(maxsize=None)
def smoke(workload: str, seed: int, trace: int, out: str):
    """One smoke run: (wall seconds, stdout lines, run document)."""
    started = time.monotonic()
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
            "--smoke", "--out", out,
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    wall = time.monotonic() - started
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    [run_json] = Path(out).rglob("run.json")
    return wall, lines, json.loads(run_json.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


def _run(out_dir, workload, seed, trace):
    out = out_dir / f"{workload}-{seed}-{trace}"
    out.mkdir(exist_ok=True)
    return smoke(workload, seed, trace, str(out))


def test_smoke_run_emits_every_declared_metric(out_dir):
    wall, lines, document = _run(out_dir, "cp100k", 1, 0)
    assert wall < 30
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {name: m["unit"] for name, m in final["metrics"].items()} == declared
    for name, unit in declared.items():
        measured = document["metrics"][name]
        assert measured["unit"] == unit and measured["n"] >= 1
        assert measured["value"] > 0
        assert any(line.split()[:1] == [name] and f"n={measured['n']}" in line
                   for line in lines), name


def test_trace_file_parses_and_self_time_fits_duration(out_dir):
    _, lines, document = _run(out_dir, "rmat14", 1, 1)
    final = json.loads(lines[-1])
    assert list(final["metrics"]) == [m["name"] for m in DECLARED["per_layer"]]
    spans = read_jsonl(document["trace_file"])
    ids = {span["id"] for span in spans}
    assert {"graphs.reduction", "labeling.core_labels", "http.request",
            "serving.engine", "kernels.query"} <= {span["name"] for span in spans}
    own = self_times(spans)
    for span in spans:
        assert span["parent"] is None or span["parent"] in ids
        duration = span["end_ns"] - span["start_ns"]
        assert 0 <= own[span["id"]] <= duration


def test_seeds_change_streams_but_not_metric_names(out_dir):
    assert gate_pairs(1, 1000) != gate_pairs(2, 1000)
    assert gate_pairs(1, 1000) == gate_pairs(1, 1000)
    assert pairs(stream(1, "single"), 1000, 50) != pairs(stream(2, "single"), 1000, 50)
    _, _, first = _run(out_dir, "cp100k", 1, 0)
    _, _, second = _run(out_dir, "cp100k", 2, 0)
    assert first["inputs"]["edges_sha256"] == second["inputs"]["edges_sha256"]
    assert first["inputs"]["gate_sha256"] != second["inputs"]["gate_sha256"]
    assert list(first["metrics"]) == list(second["metrics"])


class LyingIndex:
    """Answers one pair wrongly; everything else goes to the real index."""

    def __init__(self, index, pair) -> None:
        self._index = index
        self._pair = pair

    def __getattr__(self, name):
        return getattr(self._index, name)

    def _lie(self, s, t, value):
        return value + 1 if (s, t) == self._pair else value

    def distance(self, s, t):
        return self._lie(s, t, self._index.distance(s, t))

    def distances_batch(self, batch):
        batch = list(batch)
        return [self._lie(s, t, v) for (s, t), v in zip(batch, self._index.distances_batch(batch))]

    def distances_from(self, s, targets):
        targets = list(targets)
        return [self._lie(s, t, v) for t, v in zip(targets, self._index.distances_from(s, targets))]


@pytest.mark.parametrize("path", ["query", "query_batch", "query_from"])
def test_lying_index_trips_the_gate(tmp_path, path):
    import repro
    from repro.graphs.io import read_edge_list

    graph = WORKLOADS["cp100k"].generate(smoke=True)
    edges = tmp_path / "graph.edges"
    write_edge_list(graph, edges)
    ids, adjacency = read_adjacency(edges)
    gate = gate_pairs(3, len(ids))
    expected = [bfs(adjacency, s)[t] for s, t in gate]
    loaded, _ = read_edge_list(edges)
    honest = repro.build(loaded, 20)
    spec = {"seed": 3, "rep": 0, "query_s": 0.01, "gate_pairs": gate}

    truthful = measure_queries(honest, spec, Tracer(False))
    assert check_answers(path, gate, truthful["gate"][path], expected) == len(gate)

    lied = measure_queries(LyingIndex(honest, gate[7]), spec, Tracer(False))
    with pytest.raises(GateError):
        check_answers(path, gate, lied["gate"][path], expected)


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(50) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(300_000) == 99.99
    summary = summarize(range(1, 1001))
    assert summary["p50"] == 500 and summary["p99"] == 990 and summary["n"] == 1000


def test_fast_quartile_ignores_a_minority_of_slowed_rounds():
    quiet = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1]
    slowed = quiet[:5] + [20.0, 25.0, 30.0]
    assert abs(fast_quartile(slowed, "lower") - fast_quartile(quiet, "lower")) < 0.2
    rates = [1 / v for v in slowed]
    assert fast_quartile(rates, "higher") > statistics.median(rates)
    assert fast_quartile([7.0], "lower") == 7.0


def test_compare_verdicts():
    declared = [{"name": "m", "unit": "s", "better": "lower", "bound": 0.1}]

    def runs(*values):
        return {"w": [{"metrics": {"m": {"value": v}}} for v in values]}

    [same] = compare.compare(runs(1.0, 1.01, 0.99), runs(1.0, 1.02, 0.98), declared)
    assert same["verdict"] == "agree"
    [slower] = compare.compare(runs(1.0, 1.01, 0.99), runs(1.5, 1.51, 1.49), declared)
    assert slower["verdict"] == "differ (worse)"
    [noisy] = compare.compare(runs(1.0, 1.5, 0.5, 1.2), runs(1.0, 1.01, 0.99), declared)
    assert noisy["verdict"] == "unresolved"
