"""Correctness gates: an independent BFS oracle and the checks built on it.

The oracle parses the edge list itself and runs a plain breadth-first
search; it shares no code with :mod:`repro.graphs`.  Node ids follow the
edge-list format's documented rule: file ids are compacted to
``0 .. n-1`` in sorted order.
"""

from __future__ import annotations

import hashlib
import json
import math


class GateError(Exception):
    """A correctness gate failed; the run reports no metrics."""


def read_adjacency(path) -> tuple[list[int], list[list[int]]]:
    """``(file_ids, adjacency)`` of an unweighted edge list."""
    edges = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            parts = line.split()
            if not parts or parts[0][0] in "#%":
                continue
            if len(parts) == 3 and float(parts[2]) != 1.0:
                raise GateError(f"the BFS oracle needs unit weights: {line!r}")
            edges.append((int(parts[0]), int(parts[1])))
    ids = sorted({v for edge in edges for v in edge})
    compact = {v: i for i, v in enumerate(ids)}
    adjacency: list[list[int]] = [[] for _ in ids]
    for u, v in edges:
        if u != v:
            adjacency[compact[u]].append(compact[v])
            adjacency[compact[v]].append(compact[u])
    return ids, adjacency


def bfs(adjacency, source: int) -> list[float]:
    """Hop distance from ``source`` to every node (``inf`` if unreachable)."""
    dist = [math.inf] * len(adjacency)
    dist[source] = 0
    frontier = [source]
    while frontier:
        following = []
        for u in frontier:
            step = dist[u] + 1
            for v in adjacency[u]:
                if dist[v] == math.inf:
                    dist[v] = step
                    following.append(v)
        frontier = following
    return dist


def ids_digest(ids) -> str:
    """Digest of a node-id mapping, to compare it across processes."""
    return hashlib.sha256(json.dumps(list(ids)).encode()).hexdigest()


def check_answers(label: str, pairs, answers, expected) -> int:
    """Raise :class:`GateError` unless ``answers`` equal ``expected``."""
    if len(answers) != len(pairs):
        raise GateError(f"{label}: {len(answers)} answers for {len(pairs)} pairs")
    for (s, t), got, want in zip(pairs, answers, expected):
        if got != want:
            raise GateError(f"{label}: dist({s}, {t}) = {got}, expected {want}")
    return len(pairs)
