"""Compact label storage backends and binary index snapshots.

Two things live here:

* the **flat backend** — :class:`FlatLabelStore` (CSR 2-hop labels) and
  :class:`FlatTreeLabelStore` (CSR tree labels), selected with
  ``backend="flat"`` on every build entry point or after the fact via
  ``index.compact()``;
* the **binary snapshot format** (version 5) —
  :func:`save_ct_index_binary` / :func:`load_ct_index_binary`, a
  checksummed little-endian section file that loads by ``frombytes``
  instead of JSON parsing (layout in ``docs/formats.md``).

:mod:`repro.storage.sizing` measures what each backend actually holds
resident, which is what ``repro storage-bench`` records.
"""

from repro.storage.binary import (
    BINARY_FORMAT_VERSION,
    MAGIC,
    is_binary_snapshot,
    load_ct_index_binary,
    save_ct_index_binary,
)
from repro.storage.flat_labels import FlatLabelStore, merge_intersection
from repro.storage.flat_tree import FlatTreeLabelStore, TreeRunView
from repro.storage.sizing import (
    ct_resident_label_bytes,
    deep_container_bytes,
    hub_store_resident_bytes,
    tree_store_resident_bytes,
)

__all__ = [
    "BINARY_FORMAT_VERSION",
    "FlatLabelStore",
    "FlatTreeLabelStore",
    "MAGIC",
    "TreeRunView",
    "ct_resident_label_bytes",
    "deep_container_bytes",
    "hub_store_resident_bytes",
    "is_binary_snapshot",
    "load_ct_index_binary",
    "merge_intersection",
    "save_ct_index_binary",
    "tree_store_resident_bytes",
]
