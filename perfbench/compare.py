"""Compare two sets of perfbench runs metric by metric.

Usage::

    python3 perfbench/compare.py A/ B/ [--trace]

``A/`` and ``B/`` are directories holding run documents (``run.json``,
one per run, found recursively; ``perfbench/run.py --out A/`` writes
them there).  For each workload and each metric declared in
``BENCHMARK.json`` the table gives both sides' median and quartiles,
each side's spread (interquartile distance over median), the change of
B against A, the metric's bound, and a verdict:

* ``agree``: both spreads and the change are within the bound;
* ``differ``: both spreads are within the bound, the change is not;
* ``unresolved``: a side's spread exceeds the bound, so the runs cannot
  tell a change of that size from noise.

Per-layer metrics (``--trace``) have no bound and get no verdict.  The
exit status is 0 only when every verdict is ``agree``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.stats import spread

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory: Path, trace: int) -> dict[str, list[dict]]:
    """Run documents under ``directory``, grouped by workload."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.rglob("run.json")):
        document = json.loads(path.read_text(encoding="utf-8"))
        if document.get("trace") == trace and not document.get("smoke"):
            runs.setdefault(document["workload"], []).append(document)
    return runs


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(a_runs, b_runs, declared: list[dict]) -> list[dict]:
    rows = []
    for workload in sorted(set(a_runs) | set(b_runs)):
        for metric in declared:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs.get(workload, ()) if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_runs.get(workload, ()) if name in r["metrics"]]
            row = {"workload": workload, "metric": name, "a_n": len(a), "b_n": len(b)}
            if not a or not b:
                row["verdict"] = "missing"
                rows.append(row)
                continue
            row["a"] = _quartiles(a)
            row["b"] = _quartiles(b)
            row["a_spread"] = spread(a)
            row["b_spread"] = spread(b)
            base = row["a"][1]
            change = (row["b"][1] - base) / abs(base) if base else 0.0
            row["change"] = change
            bound = metric.get("bound")
            row["bound"] = bound
            if bound is None:
                row["verdict"] = ""
            elif max(row["a_spread"], row["b_spread"]) > bound:
                row["verdict"] = "unresolved"
            elif abs(change) <= bound:
                row["verdict"] = "agree"
            else:
                worse = change > 0 if metric["better"] == "lower" else change < 0
                row["verdict"] = "differ (worse)" if worse else "differ (better)"
            rows.append(row)
    return rows


def render(rows) -> str:
    header = (
        f"{'workload':<10} {'metric':<30} {'A q1/med/q3':>32} {'B q1/med/q3':>32} "
        f"{'sprA':>6} {'sprB':>6} {'change':>8} {'bound':>5}  verdict"
    )
    lines = [header]
    for row in rows:
        if row["verdict"] == "missing":
            lines.append(
                f"{row['workload']:<10} {row['metric']:<30} "
                f"missing (A n={row['a_n']}, B n={row['b_n']})"
            )
            continue
        a = "/".join(f"{v:.4g}" for v in row["a"])
        b = "/".join(f"{v:.4g}" for v in row["b"])
        bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
        lines.append(
            f"{row['workload']:<10} {row['metric']:<30} {a:>32} {b:>32} "
            f"{row['a_spread']:>6.3f} {row['b_spread']:>6.3f} {row['change']:>+8.3f} "
            f"{bound:>5}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of perfbench runs.")
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--trace", action="store_true", help="compare per-layer metrics")
    args = parser.parse_args(argv)
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    trace = int(args.trace)
    rows = compare(load_runs(args.a, trace), load_runs(args.b, trace), declared[kind])
    if not rows:
        print("no runs found", file=sys.stderr)
        return 1
    print(render(rows))
    if args.trace:
        return 0
    return 0 if all(row["verdict"] == "agree" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
