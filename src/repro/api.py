"""The stable public facade: five verbs over the whole library.

Everything an application needs is here — construction, persistence,
and querying — with one spelling per concept:

    import repro

    index = repro.build(graph, bandwidth=16, workers=4, backend="flat")
    repro.save(index, "index.bin", format="binary")
    index = repro.load("index.bin")
    repro.query(index, 0, 9)
    repro.query_batch(index, [(0, 9), (3, 7)])

Stability tiers (see ``docs/api.md``):

* **stable** — this module, re-exported from :mod:`repro`; signatures
  only grow keyword arguments, never change meaning.
* **supported** — the subsystem modules (``repro.core``,
  ``repro.labeling``, ``repro.serving``, ``repro.obs``, ...): public
  and tested, but their signatures may change between releases; each
  change is listed under "Breaking changes" in ``CHANGELOG.md``.
* **internal** — everything prefixed with ``_`` and the ``repro.bench``
  harness internals.

Every function validates its arguments with
:mod:`repro.exceptions` types (:class:`~repro.exceptions.
ConfigurationError` subclasses both :class:`~repro.exceptions.
ReproError` and :class:`ValueError`, so either discipline of caller
catches it).
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from typing import Union

from repro.core.config import BuildConfig, resolve_build_config
from repro.core.ct_index import CTIndex
from repro.exceptions import ConfigurationError
from repro.graphs.graph import Graph, Weight

PathLike = Union[str, os.PathLike]

#: ``format=`` spellings accepted by :func:`save`.
SAVE_FORMATS = ("json", "binary")


def build(
    graph: Graph,
    bandwidth: int | None = None,
    *,
    config: BuildConfig | None = None,
    **knobs,
) -> CTIndex:
    """Build a CT-Index on ``graph``.

    ``knobs`` are :class:`BuildConfig` fields.  They can be spelled as
    loose keyword arguments, as one :class:`BuildConfig` via
    ``config=``, or both: a knob passed alongside ``config=`` must agree
    with it, or :class:`~repro.exceptions.ConfigurationError` is raised
    (see :func:`~repro.core.config.resolve_build_config`).  ``bandwidth``
    is required unless a ``config`` supplies it.  Every bad value raises
    before the graph is touched.

    Thin, stable veneer over :meth:`repro.core.ct_index.CTIndex.build`
    (which also accepts a memory ``budget=``).  ``workers``,
    ``backend``, and ``kernel`` never change answers — a ``workers=N``
    flat-backend index is byte-identical to a serial dict-backend one
    once serialized, and the ``"numpy"`` kernels
    (:mod:`repro.kernels`) are differentially verified against the
    ``"python"`` ones.
    """
    return CTIndex.build(graph, config=resolve_build_config(bandwidth, config, knobs))


def save(index: CTIndex, path: PathLike, *, format: str = "json") -> None:
    """Write ``index`` to ``path``.

    ``format`` is ``"json"`` (the inspectable interchange document) or
    ``"binary"`` (the checksummed v5 snapshot — smaller, much faster to
    reload, and eligible for ``load(..., mmap=True)``).  :func:`load` auto-detects either, so the choice is purely
    a size/speed trade.
    """
    if format not in SAVE_FORMATS:
        raise ConfigurationError(
            f"unknown index format {format!r}; expected one of {SAVE_FORMATS}"
        )
    if format == "binary":
        from repro.storage.binary import save_ct_index_binary

        save_ct_index_binary(index, path)
    else:
        from repro.core.serialization import save_ct_index

        save_ct_index(index, path)


def load(path: PathLike, *, backend: str | None = None, mmap: bool = False) -> CTIndex:
    """Reload an index written by :func:`save` (either format).

    The format is detected from the file's leading bytes.  ``backend``
    forces the label storage of the loaded index (``"dict"`` or
    ``"flat"``); ``None`` keeps each format's natural layout.

    ``mmap=True`` memory-maps a binary snapshot read-only instead of
    copying it into process memory: start-up touches only the section
    table and CRCs, the label arrays are views over the file, and every
    process mapping the same snapshot shares one resident copy through
    the page cache.  Only valid for binary snapshots with the flat
    backend.
    """
    from repro.core.serialization import load_ct_index

    return load_ct_index(path, backend=backend, mmap=mmap)


def query(index: CTIndex, s: int, t: int) -> Weight:
    """Exact shortest-path distance between ``s`` and ``t``."""
    return index.distance(s, t)


def query_batch(
    index: CTIndex, pairs: Iterable[tuple[int, int]]
) -> list[Weight]:
    """Distances for every ``(s, t)`` pair, in input order."""
    return index.distances_batch(pairs)


def query_from(index: CTIndex, s: int, targets: Iterable[int]) -> list[Weight]:
    """Distances from one source ``s`` to every target, in input order."""
    return index.distances_from(s, targets)


__all__ = [
    "BuildConfig",
    "SAVE_FORMATS",
    "build",
    "load",
    "query",
    "query_batch",
    "query_from",
    "save",
]
