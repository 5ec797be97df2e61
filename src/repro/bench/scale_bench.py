"""Scale trajectory benchmark: construction from 10³ to 10⁶ nodes.

``repro scale-bench`` builds a CT-Index per scale tier — synthetic
core-periphery graphs from 10³ to 10⁶ nodes plus an R-MAT family for the
scale-free regime — and records the construction-cost trajectory
(build seconds, combined parent+children peak RSS, label entries,
modeled megabytes) into ``BENCH_scale.json``.

Schema 2 additions: each entry names its ``workers`` count, carries the
per-build ``round_split`` (the PSL rounds' kernel vs merge seconds, when
the vectorized core path ran), and — when ``--workers`` sweeps several
counts over one tier — ``speedup_vs_serial`` relative to that tier's
``workers=1`` build in the same run.

Every tier is **gated on correctness before anything is written**:

* tiers up to :data:`FINGERPRINT_MAX_N` nodes rebuild the same graph
  with the serial pure-Python reference configuration
  (``kernel="python"``, ``core_backend="pll"``, dict backend, no
  workers) and require :func:`~repro.core.serialization.
  index_fingerprint` identity — the vectorized PSL rounds, flat
  backend, and any scheduling must be invisible in the built labels;
* larger tiers, where a second full build would dominate the bench,
  are spot-checked differentially against BFS from sampled sources.

A tier that fails its gate raises :class:`~repro.exceptions.ReproError`
and the run records nothing: a fast wrong build must never become a
benchmark data point.  The artifact embeds the full
:meth:`~repro.core.config.BuildConfig.to_dict` document per entry, so every
recorded number names the exact configuration that produced it.

The community size ceilings in the core-periphery tiers sit near the
bandwidth on purpose: near-cliques wider than ``d + 1`` cannot be
eliminated and fold into the core (the paper's footnote 2), so the
ceilings keep the core a small multiple of ``core_size`` while the
fringe carries the node count — the paper's core-periphery shape.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

from repro.core.config import BuildConfig
from repro.bench.reporting import format_table
from repro.core.ct_index import CTIndex
from repro.core.serialization import index_fingerprint
from repro.exceptions import ReproError
from repro.graphs.generators.core_periphery import (
    CorePeripheryConfig,
    core_periphery_graph,
)
from repro.graphs.generators.rmat import rmat_graph
from repro.graphs.graph import INF, Graph
from repro.graphs.traversal import bfs_distances

#: Default artifact path, relative to the working directory.
BENCH_SCALE_PATH = "BENCH_scale.json"

#: Largest tier that is re-built with the serial pure-Python reference
#: configuration for an index_fingerprint identity check; larger tiers
#: fall back to differential BFS spot-checks.
FINGERPRINT_MAX_N = 20_000

#: BFS spot-check sampling: sources spread over the node range, and
#: targets spread over each source's BFS frontier.
SPOT_SOURCES = 5
SPOT_TARGETS = 50


@dataclasses.dataclass(frozen=True)
class ScaleTier:
    """One point on the scale trajectory."""

    name: str
    family: str  #: ``"cp"`` (core-periphery) or ``"rmat"``
    target_n: int  #: nominal node count (generation is approximate)
    seed: int
    params: dict

    def generate(self) -> Graph:
        if self.family == "cp":
            return core_periphery_graph(
                CorePeripheryConfig(**self.params), self.seed
            )
        if self.family == "rmat":
            return rmat_graph(
                self.params["scale"], self.params["edge_factor"], self.seed
            )
        raise ReproError(f"unknown tier family {self.family!r}")


def _cp(core, density, communities, fringe, *, max_comm):
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


#: The default trajectory, ascending by target size.  Core sizes grow
#: sub-linearly (dense cores of real graphs do); the fringe carries the
#: scale.  R-MAT tiers probe the scale-free regime where elimination
#: stalls early and the core stays a large fraction of the graph.
DEFAULT_TIERS: tuple[ScaleTier, ...] = (
    ScaleTier("cp-1k", "cp", 10**3, 1301, _cp(80, 0.45, 8, 700, max_comm=40)),
    ScaleTier("cp-10k", "cp", 10**4, 1302, _cp(150, 0.25, 25, 9_200, max_comm=50)),
    ScaleTier("cp-100k", "cp", 10**5, 1303, _cp(300, 0.12, 120, 96_000, max_comm=60)),
    ScaleTier("cp-1m", "cp", 10**6, 1304, _cp(600, 0.06, 1_200, 975_000, max_comm=60)),
    ScaleTier("rmat-10", "rmat", 2**10, 1305, {"scale": 10, "edge_factor": 4}),
    ScaleTier("rmat-13", "rmat", 2**13, 1306, {"scale": 13, "edge_factor": 4}),
    ScaleTier("rmat-16", "rmat", 2**16, 1307, {"scale": 16, "edge_factor": 4}),
)

#: The configuration the trajectory measures by default: the scale
#: pipeline (vectorized PSL rounds where NumPy is available, CSR flat
#: storage).  The reference gate strips all of it back to the serial
#: pure-Python build.
DEFAULT_CONFIG = BuildConfig(backend="flat", core_backend="psl", kernel="auto")

_REFERENCE_OVERRIDES = {
    "backend": "dict",
    "core_backend": "pll",
    "kernel": "python",
    "workers": None,
}


def _peak_rss_mb() -> float:
    """Parent + worker-children peak RSS in MB (see repro.bench.memory)."""
    from repro.bench.memory import combined_peak_rss_mb

    return combined_peak_rss_mb()


def _verify_fingerprint(graph: Graph, index: CTIndex, config: BuildConfig) -> dict:
    """Gate: the measured build must equal the serial reference's bytes."""
    reference_config = config.replace(**_REFERENCE_OVERRIDES)
    started = time.perf_counter()
    reference = CTIndex.build(graph, config=reference_config)
    built = index_fingerprint(index)
    expected = index_fingerprint(reference)
    if built != expected:
        raise ReproError(
            "scale-bench fingerprint gate: the measured build differs from "
            f"the serial pure-Python reference (config {config.to_dict()!r})"
        )
    return {
        "mode": "fingerprint",
        "reference_s": round(time.perf_counter() - started, 3),
        "identical": True,
    }


def _verify_bfs(graph: Graph, index: CTIndex, *, sources=SPOT_SOURCES, targets=SPOT_TARGETS) -> dict:
    """Gate: sampled distances must match BFS exactly."""
    started = time.perf_counter()
    n = graph.n
    checked = 0
    for i in range(sources):
        s = (i * n) // sources
        dist = bfs_distances(graph, s)
        reached = [v for v in range(n) if dist[v] != INF]
        step = max(1, len(reached) // targets)
        for t in reached[::step][:targets]:
            got = index.distance(s, t)
            if got != dist[t]:
                raise ReproError(
                    f"scale-bench BFS gate: dist({s}, {t}) = {got}, "
                    f"BFS says {dist[t]}"
                )
            checked += 1
    return {
        "mode": "bfs",
        "sources": sources,
        "pairs": checked,
        "reference_s": round(time.perf_counter() - started, 3),
        "identical": True,
    }


def _round_split(index: CTIndex) -> dict | None:
    """Kernel/merge seconds of the vectorized PSL rounds, when they ran."""
    stats = getattr(index.core_index, "round_stats", None)
    if not stats:
        return None
    return {
        "rounds": stats["rounds"],
        "kernel_s": round(stats["kernel_s"], 3),
        "merge_s": round(stats["merge_s"], 3),
    }


def scale_bench_entry(
    tier: ScaleTier,
    *,
    config: BuildConfig = DEFAULT_CONFIG,
    graph: Graph | None = None,
) -> dict:
    """Generate, build, verify, and measure one tier.

    Raises :class:`ReproError` (and returns nothing) when the
    correctness gate fails; callers must not record anything for a tier
    that did not pass.  ``graph`` reuses an already-generated graph
    (worker sweeps rebuild the same tier several times).
    """
    gen_started = time.perf_counter()
    if graph is None:
        graph = tier.generate()
    gen_seconds = time.perf_counter() - gen_started

    build_started = time.perf_counter()
    index = CTIndex.build(graph, config=config)
    build_seconds = time.perf_counter() - build_started

    if graph.n <= FINGERPRINT_MAX_N:
        verify = _verify_fingerprint(graph, index, config)
    else:
        verify = _verify_bfs(graph, index)

    from repro.parallel.pool import resolve_workers

    stats = index.stats()
    return {
        "tier": tier.name,
        "family": tier.family,
        "n": graph.n,
        "m": graph.m,
        "workers": resolve_workers(config.workers),
        "gen_s": round(gen_seconds, 3),
        "build_s": round(build_seconds, 3),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "entries": stats.entries,
        "modeled_mb": round(stats.megabytes, 3),
        "round_split": _round_split(index),
        "speedup_vs_serial": None,
        "verify": verify,
        "config": config.to_dict(),
    }


def _upgrade_document(document: dict) -> dict:
    """Bring a loaded artifact up to schema 2 in place.

    Schema-1 entries predate the workers sweep: they were all serial
    builds, so ``workers`` is read out of their embedded config and the
    sweep-only fields are explicit nulls.
    """
    if document.get("schema") == 2:
        return document
    for entry in document.get("entries", ()):
        entry.setdefault(
            "workers", (entry.get("config") or {}).get("workers") or 1
        )
        entry.setdefault("round_split", None)
        entry.setdefault("speedup_vs_serial", None)
    document["schema"] = 2
    return document


def run_scale_bench(
    tiers=None,
    *,
    config: BuildConfig = DEFAULT_CONFIG,
    workers=None,
    max_n: int | None = None,
    output=BENCH_SCALE_PATH,
) -> tuple[list[dict], str]:
    """Run the trajectory and append one artifact entry per tier.

    ``tiers`` selects by name (default: every tier); ``max_n`` drops
    tiers whose target size exceeds it.  ``workers`` sweeps a list of
    worker counts over every tier (each count is one entry; counts
    beyond the first reuse the generated graph, and entries record
    ``speedup_vs_serial`` against the sweep's ``workers=1`` build when
    one is present).

    Every tier's correctness gate runs **before** anything is written:
    a failing gate raises and leaves ``output`` untouched, even for
    tiers that had already passed.  ``peak_rss_mb`` is the combined
    parent+children high-water mark, so tiers are run smallest-first
    and the column is monotone by construction — read it as "the
    trajectory up to here fit in this much memory".

    Returns ``(entries, text)`` like the other experiment drivers.
    """
    from repro.bench.memory import reset_child_peak_rss

    selected = list(DEFAULT_TIERS)
    if tiers is not None:
        by_name = {tier.name: tier for tier in DEFAULT_TIERS}
        unknown = [name for name in tiers if name not in by_name]
        if unknown:
            raise ReproError(
                f"unknown scale tiers {unknown}; known: {sorted(by_name)}"
            )
        selected = [by_name[name] for name in tiers]
    if max_n is not None:
        selected = [tier for tier in selected if tier.target_n <= max_n]
    if not selected:
        raise ReproError("scale-bench: no tiers selected")
    selected.sort(key=lambda tier: tier.target_n)

    worker_counts = list(workers) if workers else [config.workers]
    reset_child_peak_rss()

    entries = []
    for tier in selected:
        graph = tier.generate()
        serial_build_s = None
        for count in worker_counts:
            entry = scale_bench_entry(
                tier, config=config.replace(workers=count), graph=graph
            )
            if entry["workers"] == 1:
                serial_build_s = entry["build_s"]
            elif serial_build_s:
                entry["speedup_vs_serial"] = round(
                    serial_build_s / max(entry["build_s"], 1e-9), 2
                )
            entries.append(entry)

    if output is not None:
        path = Path(output)
        document = {"schema": 2, "entries": []}
        if path.exists():
            try:
                loaded = json.loads(path.read_text(encoding="utf-8"))
                if isinstance(loaded, dict) and isinstance(loaded.get("entries"), list):
                    document = _upgrade_document(loaded)
            except (OSError, json.JSONDecodeError):
                pass
        recorded_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        for entry in entries:
            document["entries"].append({**entry, "recorded_at": recorded_at})
        path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")

    rows = [
        {
            "tier": entry["tier"],
            "n": entry["n"],
            "m": entry["m"],
            "workers": entry["workers"],
            "build_s": entry["build_s"],
            "speedup": entry["speedup_vs_serial"] or "",
            "peak_rss_mb": entry["peak_rss_mb"],
            "entries": entry["entries"],
            "modeled_mb": entry["modeled_mb"],
            "verify": entry["verify"]["mode"],
        }
        for entry in entries
    ]
    text = format_table(
        rows,
        [
            "tier",
            "n",
            "m",
            "workers",
            "build_s",
            "speedup",
            "peak_rss_mb",
            "entries",
            "modeled_mb",
            "verify",
        ],
        title=f"scale-bench — CT-{config.bandwidth} construction trajectory",
    )
    return entries, text
