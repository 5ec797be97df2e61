"""Vectorized NumPy kernels for queries and label construction.

The flat backend of :mod:`repro.storage` packs labels into contiguous
typed arrays — exactly the layout NumPy can view zero-copy and reduce
in a handful of array ops.  This package holds the kernels that read
those arrays to answer queries:

* :mod:`repro.kernels.views` — cached ``np.frombuffer`` views onto
  :class:`~repro.storage.flat_labels.FlatLabelStore` /
  :class:`~repro.storage.flat_tree.FlatTreeLabelStore`;
* :mod:`repro.kernels.label_kernels` — point and batch 2-hop
  intersections over one flat label store;
* :mod:`repro.kernels.ct_kernels` — the CT-Index 4-case dispatch,
  including the Lemma 9 extension operation as array reductions;

and the kernels that build 2-hop labels:

* :mod:`repro.kernels.pruned_search` — PLL's pruned searches, one
  array-level Bellman–Ford per root (weighted and unweighted), which
  labels the CT core on every default build;
* :mod:`repro.kernels.psl_rounds` — PSL's propagation rounds over CSR
  frontier arrays;

and the kernels that run the build's graph steps on
:class:`~repro.graphs.graph.Graph`'s CSR arrays:

* :mod:`repro.kernels.graph_arrays` — the twin reduction, the CSR of a
  deduplicated edge list (the edge-list loader) and the upper-triangle
  edge arrays (the snapshot writer).  The loader and the writer use it
  whenever NumPy is installed: their output is byte-identical either way.

NumPy stays **optional**: this module imports without it, and the
submodules above (which do ``import numpy``) are only loaded once
:func:`resolve_kernel` (queries) or :func:`construction_kernel`
(builders) has decided the numpy kernel applies.  Kernel selection is
explicit everywhere it is wired through
(``kernel="numpy" | "python" | "auto"``):

* ``"python"`` — always the interpreter kernels (works on any backend);
* ``"numpy"`` — require the vectorized kernels; raises
  :class:`~repro.exceptions.ConfigurationError` when NumPy is missing
  (install the ``repro[fast]`` extra) or, for queries, the index is not
  on the flat backend (the query kernels read CSR arrays);
* ``"auto"`` (default) — numpy when available *and*, for queries, the
  backend is flat or, for builders, the graph has at least
  :data:`VECTORIZE_MIN_NODES` nodes; python otherwise.

Every kernel is answer-identical to the scalar path, and the builders
are label-identical (``index_fingerprint()``-equal) — the differential
suite pins this — so selection is purely a performance choice.
"""

from __future__ import annotations

import repro.obs as _obs
from repro.exceptions import ConfigurationError

#: Kernel spellings accepted by every ``kernel=`` argument.
KERNEL_AUTO = "auto"
KERNEL_NUMPY = "numpy"
KERNEL_PYTHON = "python"
KERNEL_NAMES = (KERNEL_AUTO, KERNEL_NUMPY, KERNEL_PYTHON)

#: The optional extra that brings NumPy in (named in error messages).
FAST_EXTRA = "repro[fast]"

#: Below this node count a construction ``kernel="auto"`` request keeps
#: the pure-Python builders: the arrays' fixed setup cost dominates on
#: tiny graphs (most test fixtures and small cores), and both paths
#: build identical labels, so the cutoff is purely a performance
#: heuristic.
VECTORIZE_MIN_NODES = 64

#: Cached availability probe result (None = not probed yet).  Tests
#: monkeypatch this to simulate a NumPy-less environment.
_NUMPY_STATE: bool | None = None


def numpy_available() -> bool:
    """True when ``import numpy`` succeeds (probed once, then cached)."""
    global _NUMPY_STATE
    if _NUMPY_STATE is None:
        try:
            import numpy  # noqa: F401

            _NUMPY_STATE = True
        except ImportError:
            _NUMPY_STATE = False
    return _NUMPY_STATE


def validate_kernel(kernel: str) -> str:
    """Check a ``kernel=`` argument, returning it unchanged.

    Raises :class:`ConfigurationError` on anything but ``"auto"``,
    ``"numpy"`` or ``"python"``.
    """
    if kernel not in KERNEL_NAMES:
        raise ConfigurationError(
            f"unknown query kernel {kernel!r}; expected one of {KERNEL_NAMES}"
        )
    return kernel


def resolve_kernel(kernel: str = KERNEL_AUTO, *, flat: bool = True) -> str:
    """Resolve a kernel request to ``"numpy"`` or ``"python"``.

    ``flat`` says whether the index's labels are on the CSR flat
    backend (the only layout the numpy kernels can view).  An explicit
    ``"numpy"`` request that cannot be honoured raises
    :class:`ConfigurationError`; ``"auto"`` never raises.
    """
    validate_kernel(kernel)
    if kernel == KERNEL_PYTHON:
        return KERNEL_PYTHON
    if kernel == KERNEL_NUMPY:
        # The layout check comes first, so a dict-backed index gets the
        # same error with or without NumPy installed.
        if not flat:
            raise ConfigurationError(
                "kernel='numpy' reads the CSR arrays of the flat storage "
                "backend; call compact() (or build with backend='flat') "
                "before selecting it"
            )
        if not numpy_available():
            raise ConfigurationError(
                "kernel='numpy' requires NumPy, which is not installed; "
                f"install the optional extra ({FAST_EXTRA}) or use "
                "kernel='python'"
            )
        return KERNEL_NUMPY
    # auto: vectorize when possible, never complain when not.
    return KERNEL_NUMPY if (flat and numpy_available()) else KERNEL_PYTHON


def construction_kernel(kernel: str, n: int) -> str:
    """Resolve a builder's ``kernel=`` request for an ``n``-node graph.

    Construction kernels build in-memory arrays, so the flat-backend
    requirement of the query kernels does not apply: ``"numpy"`` always
    vectorizes (raising :class:`ConfigurationError` without NumPy),
    ``"auto"`` vectorizes when NumPy is installed and ``n`` reaches
    :data:`VECTORIZE_MIN_NODES`, and ``"python"`` never does.
    """
    resolved = resolve_kernel(kernel, flat=True)
    if resolved == KERNEL_NUMPY and (
        kernel == KERNEL_NUMPY or n >= VECTORIZE_MIN_NODES
    ):
        return KERNEL_NUMPY
    return KERNEL_PYTHON


def record_kernel_queries(kernel: str, count: int = 1) -> None:
    """Bump the per-kernel query counter in the shared obs registry.

    No-op while observability is disabled (the production default), so
    the hot path pays one predicate call.
    """
    if _obs.enabled():
        _obs.registry().counter("kernels.queries", kernel=kernel).inc(count)


__all__ = [
    "FAST_EXTRA",
    "KERNEL_AUTO",
    "KERNEL_NAMES",
    "KERNEL_NUMPY",
    "KERNEL_PYTHON",
    "VECTORIZE_MIN_NODES",
    "construction_kernel",
    "numpy_available",
    "record_kernel_queries",
    "resolve_kernel",
    "validate_kernel",
]
