"""The benchmark's own spans.

A span is one call into a layer's public function, recorded from the
benchmark's side: name, start, end (``time.monotonic_ns``, which is one
clock for every process on the host), the span that caused it, and a
request id for spans that belong to one request.  Spans stay in memory
and are written as JSON lines when the run ends.

A span's *self time* is its duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects spans in memory; a disabled tracer records nothing."""

    def __init__(self, enabled: bool, parent: str | None = None) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[str | None] = [parent]
        self._next = 0
        self._prefix = str(os.getpid())

    def _new_id(self) -> str:
        self._next += 1
        return f"{self._prefix}.{self._next}"

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the enclosed block as a child of the innermost open span."""
        if not self.enabled:
            yield None
            return
        span_id = self._new_id()
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = time.monotonic_ns()
        try:
            yield span_id
        finally:
            end = time.monotonic_ns()
            self._stack.pop()
            self._append(span_id, name, start, end, parent, None, attrs)

    def record(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        *,
        parent: str | None = None,
        request=None,
        **attrs,
    ) -> str | None:
        """Add a span timed elsewhere (concurrent requests, another process)."""
        if not self.enabled:
            return None
        span_id = self._new_id()
        if parent is None:
            parent = self._stack[-1]
        self._append(span_id, name, start_ns, end_ns, parent, request, attrs)
        return span_id

    def _append(self, span_id, name, start, end, parent, request, attrs) -> None:
        record = {
            "id": span_id,
            "name": name,
            "start_ns": start,
            "end_ns": end,
            "parent": parent,
            "request": request,
        }
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)


def span_cost_ns(samples: int = 20_000) -> float:
    """Measured cost of recording one span, in ns (an upper bound per span)."""
    tracer = Tracer(True)
    started = time.perf_counter_ns()
    for _ in range(samples):
        with tracer.span("probe"):
            pass
    return (time.perf_counter_ns() - started) / samples


def write_jsonl(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in spans:
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(spans) -> dict[str, int]:
    """Span id -> self time in ns (duration minus the union of its children)."""
    children: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for record in spans:
        if record["parent"] is not None:
            children[record["parent"]].append((record["start_ns"], record["end_ns"]))
    result = {}
    for record in spans:
        start, end = record["start_ns"], record["end_ns"]
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(record["id"], ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[record["id"]] = (end - start) - covered
    return result
