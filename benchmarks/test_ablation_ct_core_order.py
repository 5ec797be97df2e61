"""Ablation (DESIGN.md §5) — the hub order of the CT core labeling.

The paper's theory (Theorem 4.4 of [2], used by Lemma 5/12) assumes an
elimination-derived hub order; practice (PSL) uses degree order.  Both
yield exact answers; this bench compares their core-label footprint.
"""

from __future__ import annotations

from repro.bench.datasets import load_dataset
from repro.bench.experiments import ablation_ct_core_order
from repro.core.ct_index import CTIndex


def test_ablation_ct_core_order(benchmark, save_table):
    rows, text = ablation_ct_core_order()
    print("\n" + text)
    save_table("ablation_ct_core_order", text)

    by_order = {str(r["core_order"]): r for r in rows}
    # Both orders produce a working index of comparable size (within 3x).
    degree_entries = int(str(by_order["degree"]["core_entries"]))
    elimination_entries = int(str(by_order["elimination"]["core_entries"]))
    assert degree_entries > 0 and elimination_entries > 0
    ratio = max(degree_entries, elimination_entries) / min(
        degree_entries, elimination_entries
    )
    assert ratio < 3.0, (degree_entries, elimination_entries)

    graph = load_dataset("talk")
    benchmark.pedantic(
        lambda: CTIndex.build(graph, 20, order="elimination"),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
