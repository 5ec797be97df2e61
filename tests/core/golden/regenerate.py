"""Regenerate the golden index fixtures in this directory.

Run from the repository root::

    PYTHONPATH=src python tests/core/golden/regenerate.py

The fixtures pin the on-disk formats: ``index_v2.json`` is the JSON
document (format version 2), and ``index_v3.ctsnap``,
``index_v4.ctsnap`` and ``index_v5.ctsnap`` are the binary snapshots of
format versions 3, 4 and 5, all of the same deterministic build —
``CTIndex.build(gnp_graph(20, 0.2, seed=1), bandwidth=3)`` with
``build_seconds`` zeroed so the bytes are reproducible.

``index_v2.json``, ``index_v3.ctsnap`` and ``index_v4.ctsnap`` are
*frozen*: they exist precisely to prove today's loader still reads bytes
written by the older writers, so this script never rewrites them.  The
binary writer only emits version 5, and the JSON writer now emits each
elimination step's ``local_distance`` map in ascending neighbor order,
so rewriting ``index_v2.json`` would replace the old writer's bytes.

Only regenerate after an *intentional* format change; the golden tests
in ``tests/core/test_serialization.py`` exist to catch accidental ones.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.ct_index import CTIndex
from repro.core.serialization import save_ct_index_binary
from repro.graphs.generators.random_graphs import gnp_graph

GOLDEN_DIR = Path(__file__).resolve().parent
GOLDEN_SEED = 1
GOLDEN_N = 20
GOLDEN_P = 0.2
GOLDEN_BANDWIDTH = 3


def golden_index() -> CTIndex:
    """The deterministic build every fixture was written from."""
    index = CTIndex.build(
        gnp_graph(GOLDEN_N, GOLDEN_P, seed=GOLDEN_SEED), GOLDEN_BANDWIDTH
    )
    index.build_seconds = 0.0
    return index


def main() -> None:
    index = golden_index()
    save_ct_index_binary(index, GOLDEN_DIR / "index_v5.ctsnap")
    print(
        f"wrote fixtures to {GOLDEN_DIR} "
        f"(index_v2.json, index_v3.ctsnap and index_v4.ctsnap are frozen)"
    )


if __name__ == "__main__":
    main()
