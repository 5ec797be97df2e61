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
  and tested, but their signatures may evolve with a one-release
  :class:`DeprecationWarning` shim.
* **internal** — everything prefixed with ``_`` and the ``repro.bench``
  harness internals.

Every function validates its arguments with
:mod:`repro.exceptions` types (:class:`~repro.exceptions.
ConfigurationError` subclasses both :class:`~repro.exceptions.
ReproError` and :class:`ValueError`, so either discipline of caller
catches it).
"""

from __future__ import annotations

import dataclasses
import os
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Union

from repro.core.ct_index import CTIndex
from repro.exceptions import ConfigurationError
from repro.graphs.graph import Graph, Weight

PathLike = Union[str, os.PathLike]

#: ``format=`` spellings accepted by :func:`save`.
SAVE_FORMATS = ("json", "binary")

#: Sentinel distinguishing "kwarg not passed" from any real value, so
#: explicit kwargs can be conflict-checked against a ``config=``.
_UNSET = object()

_ORDERS = (None, "degree", "elimination")
_CORE_BACKENDS = ("pll", "psl")
_BACKENDS = ("dict", "flat")
_KERNELS = ("auto", "numpy", "python")


@dataclass(frozen=True)
class BuildConfig:
    """Every build-shaping knob of :func:`build`, as one validated value.

    The build surface had sprawled to eight loose keyword arguments
    across :func:`build`, :meth:`~repro.core.ct_index.CTIndex.build`,
    and the CLI; a ``BuildConfig`` names the same knobs once, validates
    them eagerly (``__post_init__`` raises
    :class:`~repro.exceptions.ConfigurationError`), and round-trips
    through :meth:`to_dict` / :meth:`from_dict` — which is what the CLI
    ``--config config.json`` flag, bench metadata, and audit records
    embed.  The loose kwargs keep working; passing both spellings is
    fine when they agree and a :class:`ConfigurationError` when they
    conflict.

    None of the fields except ``bandwidth``, ``order``, and
    ``use_equivalence_reduction`` can change a query answer; ``workers``,
    ``backend``, ``core_backend``, and ``kernel`` are schedule/storage
    choices that build fingerprint-identical indexes.
    """

    bandwidth: int = 20
    workers: int | None = None
    backend: str = "dict"
    order: str | None = None
    core_backend: str = "pll"
    use_equivalence_reduction: bool = True
    extension_cache_size: int = 256
    kernel: str = "auto"

    def __post_init__(self) -> None:
        if not isinstance(self.bandwidth, int) or isinstance(self.bandwidth, bool):
            raise ConfigurationError(
                f"bandwidth must be an int, got {self.bandwidth!r}"
            )
        if self.bandwidth < 0:
            raise ConfigurationError(
                f"bandwidth must be non-negative, got {self.bandwidth}"
            )
        if self.workers is not None and (
            not isinstance(self.workers, int)
            or isinstance(self.workers, bool)
            or self.workers < 0
        ):
            raise ConfigurationError(
                f"workers must be None or a non-negative int, got {self.workers!r}"
            )
        if self.backend not in _BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected one of {_BACKENDS}"
            )
        if self.order not in _ORDERS:
            raise ConfigurationError(
                f"unknown order {self.order!r}; expected one of "
                f"{tuple(o for o in _ORDERS if o is not None)} or None"
            )
        if self.core_backend not in _CORE_BACKENDS:
            raise ConfigurationError(
                f"unknown core_backend {self.core_backend!r}; "
                f"expected one of {_CORE_BACKENDS}"
            )
        if not isinstance(self.use_equivalence_reduction, bool):
            raise ConfigurationError(
                "use_equivalence_reduction must be a bool, got "
                f"{self.use_equivalence_reduction!r}"
            )
        if (
            not isinstance(self.extension_cache_size, int)
            or isinstance(self.extension_cache_size, bool)
            or self.extension_cache_size < 0
        ):
            raise ConfigurationError(
                "extension_cache_size must be a non-negative int, got "
                f"{self.extension_cache_size!r}"
            )
        if self.kernel not in _KERNELS:
            raise ConfigurationError(
                f"unknown kernel {self.kernel!r}; expected one of {_KERNELS}"
            )

    def replace(self, **overrides) -> "BuildConfig":
        """A copy with ``overrides`` applied (re-validated eagerly)."""
        try:
            return dataclasses.replace(self, **overrides)
        except TypeError as exc:
            raise ConfigurationError(
                f"unknown BuildConfig field in {sorted(overrides)}"
            ) from exc

    def to_dict(self) -> dict:
        """Canonical JSON-ready form: every field, declaration order.

        The exact document ``--config config.json`` accepts and the
        bench/audit records embed; ``from_dict(to_dict())`` is identity.
        """
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "BuildConfig":
        """Parse a :meth:`to_dict` document; unknown keys are errors."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"BuildConfig document must be a JSON object, got {type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown BuildConfig keys {unknown}; expected a subset of "
                f"{sorted(known)}"
            )
        return cls(**data)


def resolve_config_kwargs(config: BuildConfig | None, explicit: dict) -> BuildConfig:
    """Merge a ``BuildConfig`` with explicitly passed loose kwargs.

    ``explicit`` holds only the kwargs the caller actually spelled out
    (callers filter out their not-passed sentinel before calling).  With
    no ``config`` the kwargs are applied over the defaults; with one,
    every explicit kwarg must agree with the config's value — agreement
    is fine (the caller is being redundant, not wrong), disagreement is
    a :class:`~repro.exceptions.ConfigurationError` naming every
    conflicting knob.
    """
    if config is None:
        return BuildConfig().replace(**explicit) if explicit else BuildConfig()
    if not isinstance(config, BuildConfig):
        raise ConfigurationError(
            f"config= must be a BuildConfig, got {type(config).__name__}"
        )
    conflicts = {
        name: value
        for name, value in explicit.items()
        if value != getattr(config, name)
    }
    if conflicts:
        detail = ", ".join(
            f"{name}={value!r} (config has {getattr(config, name)!r})"
            for name, value in sorted(conflicts.items())
        )
        raise ConfigurationError(
            f"kwargs conflict with config=: {detail}; drop one spelling "
            "or make them agree"
        )
    return config


def build(
    graph: Graph,
    bandwidth: int | None = None,
    *,
    config: BuildConfig | None = None,
    workers=_UNSET,
    backend=_UNSET,
    order=_UNSET,
    core_backend=_UNSET,
    use_equivalence_reduction=_UNSET,
    extension_cache_size=_UNSET,
    kernel=_UNSET,
) -> CTIndex:
    """Build a CT-Index on ``graph``.

    The knobs can be spelled as loose keyword arguments (as always), as
    one :class:`BuildConfig` via ``config=``, or both — explicit kwargs
    are checked against the config and a
    :class:`~repro.exceptions.ConfigurationError` is raised when the two
    spellings disagree (matching values are fine).  ``bandwidth`` is
    required unless a ``config`` supplies it.

    Thin, stable veneer over :meth:`repro.core.ct_index.CTIndex.build`
    (which also accepts a memory ``budget=``).  ``workers``,
    ``backend``, and ``kernel`` never change answers — a ``workers=N``
    flat-backend index is byte-identical to a serial dict-backend one
    once serialized, and the ``"numpy"`` kernels
    (:mod:`repro.kernels`) are differentially verified against the
    ``"python"`` ones.
    """
    overrides = {
        "workers": workers,
        "backend": backend,
        "order": order,
        "core_backend": core_backend,
        "use_equivalence_reduction": use_equivalence_reduction,
        "extension_cache_size": extension_cache_size,
        "kernel": kernel,
    }
    explicit = {k: v for k, v in overrides.items() if v is not _UNSET}
    if bandwidth is not None:
        explicit["bandwidth"] = bandwidth
    elif config is None:
        raise ConfigurationError(
            "bandwidth is required (pass it directly or via config=)"
        )
    resolved = resolve_config_kwargs(config, explicit)
    return CTIndex.build(
        graph,
        resolved.bandwidth,
        workers=resolved.workers,
        backend=resolved.backend,
        order=resolved.order,
        core_backend=resolved.core_backend,
        use_equivalence_reduction=resolved.use_equivalence_reduction,
        extension_cache_size=resolved.extension_cache_size,
        kernel=resolved.kernel,
    )


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
