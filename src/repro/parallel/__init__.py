"""Multiprocess index construction.

The parallel build path fans the two heavy halves of CT-Index
construction out over worker processes while keeping the output
byte-identical to a serial build:

* :mod:`repro.parallel.psl` — level-synchronous PSL rounds, one vertex
  chunk per worker against a read-only snapshot of the previous level;
* :mod:`repro.parallel.forest` — per-tree forest labels, whole trees
  binned into balanced tasks (skew-aware, work-stealing friendly);
* :mod:`repro.parallel.shm` — the shared-memory engine (experimental
  tier): one persistent worker pool per build, CSR label state and
  frontiers in ``multiprocessing.shared_memory``, compact per-range
  deltas instead of pickled snapshots.  Used automatically when
  ``workers > 1`` and NumPy is importable; requires NumPy, so its
  names are re-exported lazily here;
* :mod:`repro.parallel.chunking` / :mod:`repro.parallel.pool` — the
  deterministic partitioning and pool plumbing both share.

Entry points: ``repro.build(graph, d, workers=N)``,
``build_psl(graph, workers=N)``, and ``repro build --workers N`` on the
command line.  ``workers=0`` means one worker per CPU.
"""

from repro.parallel.chunking import balanced_tasks, vertex_chunks
from repro.parallel.forest import forest_tasks, parallel_tree_labels
from repro.parallel.pool import START_METHOD_ENV, pool_context, resolve_workers
from repro.parallel.psl import run_parallel_rounds

_SHM_NAMES = (
    "SHM_PREFIX",
    "ShmArena",
    "ShmBuildPool",
    "WorkerAttachments",
    "parallel_tree_labels_shm",
    "run_shm_rounds",
)

__all__ = [
    "START_METHOD_ENV",
    "balanced_tasks",
    "forest_tasks",
    "parallel_tree_labels",
    "pool_context",
    "resolve_workers",
    "run_parallel_rounds",
    "vertex_chunks",
    *_SHM_NAMES,
]


def __getattr__(name):
    # repro.parallel.shm imports NumPy at module import time; deferring
    # its re-exports keeps `import repro.parallel` working without it.
    if name in _SHM_NAMES:
        from repro.parallel import shm

        return getattr(shm, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
