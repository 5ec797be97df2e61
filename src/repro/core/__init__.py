"""The CT-Index: the paper's primary contribution."""

from repro.core.bandwidth import (
    BandwidthProbe,
    BandwidthSearchResult,
    find_bandwidth,
)
from repro.core.config import BuildConfig
from repro.core.construction import TreeIndex, build_core_index, build_tree_index
from repro.core.ct_index import CTIndex
from repro.core.serialization import load_ct_index, save_ct_index
from repro.core.validation import AuditReport, audit_ct_index

__all__ = [
    "AuditReport",
    "BandwidthProbe",
    "BandwidthSearchResult",
    "BuildConfig",
    "CTIndex",
    "TreeIndex",
    "build_core_index",
    "audit_ct_index",
    "build_tree_index",
    "find_bandwidth",
    "load_ct_index",
    "save_ct_index",
]
