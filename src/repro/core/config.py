"""The build configuration of a CT-Index: every knob, named once.

:class:`BuildConfig` is the one place the build-shaping knobs are named,
validated and merged.  Both public doors — :func:`repro.build` and
:meth:`~repro.core.ct_index.CTIndex.build` — and ``repro build`` resolve
their arguments through :func:`resolve_build_config` before they touch
the graph; everything below them takes the resolved value and does not
check it again.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.kernels import resolve_kernel, validate_kernel
from repro.labeling.base import HUB_BUILDERS, LABEL_BACKENDS

#: Core hub orders; ``order=None`` selects the first.
CORE_ORDERS = ("degree", "elimination")


@dataclass(frozen=True)
class BuildConfig:
    """Every build-shaping knob of a CT-Index, as one validated value.

    ``__post_init__`` raises :class:`~repro.exceptions.ConfigurationError`
    on any bad value, and the value round-trips through :meth:`to_dict` /
    :meth:`from_dict` — the document ``repro build --config`` accepts and
    the bench and audit records embed.

    Attributes
    ----------
    bandwidth:
        The paper's ``d``; trades index size against query time.
    workers:
        Worker processes for the parallel build path (``None``/``1``
        serial, ``0`` one per CPU).  Any worker count builds the same
        index byte for byte — see :mod:`repro.parallel`.
    backend:
        Label storage of the built index, one of
        :data:`~repro.labeling.base.LABEL_BACKENDS`: ``"dict"`` (mutable
        per-node containers) or ``"flat"`` (the CSR arrays of
        :mod:`repro.storage`, packed after construction).
    order:
        Core hub order, one of :data:`CORE_ORDERS` or ``None``:
        ``"degree"`` (PSL's practical hub order, the default) or
        ``"elimination"`` (the theory order of Theorem 4.4).
    core_backend:
        Core labelling schedule, one of
        :data:`~repro.labeling.base.HUB_BUILDERS`: ``"pll"`` (pruned
        searches) or ``"psl"`` (rounds, where the core is unweighted).
        Both build the same canonical labels (the paper's line 33).
    use_equivalence_reduction:
        Fold twin nodes before indexing (the PSL+ reduction the paper
        integrates); a no-op on weighted graphs.
    extension_cache_size:
        Bound on the per-position extension-label LRU of Case-3/4
        queries; ``0`` disables it.
    kernel:
        One of :data:`~repro.kernels.KERNEL_NAMES` for the query path,
        the twin reduction and the vectorized core labelling: ``"auto"``
        (NumPy when installed and the backend is flat), ``"numpy"``
        (required) or ``"python"``.

    Only ``bandwidth``, ``order`` and ``use_equivalence_reduction`` can
    change a query answer; the other knobs are schedule and storage
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
        if self.backend not in LABEL_BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected one of {LABEL_BACKENDS}"
            )
        if self.order is not None and self.order not in CORE_ORDERS:
            raise ConfigurationError(
                f"unknown order {self.order!r}; expected one of {CORE_ORDERS} or None"
            )
        if self.core_backend not in HUB_BUILDERS:
            raise ConfigurationError(
                f"unknown core_backend {self.core_backend!r}; "
                f"expected one of {HUB_BUILDERS}"
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
        validate_kernel(self.kernel)

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
        return {name: getattr(self, name) for name in _FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "BuildConfig":
        """Parse a :meth:`to_dict` document; unknown keys are errors."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"BuildConfig document must be a JSON object, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - set(_FIELDS))
        if unknown:
            raise ConfigurationError(
                f"unknown BuildConfig keys {unknown}; expected a subset of "
                f"{sorted(_FIELDS)}"
            )
        return cls(**data)


#: The knob names, in declaration order.
_FIELDS = tuple(f.name for f in dataclasses.fields(BuildConfig))


def resolve_build_config(
    bandwidth: int | None, config: BuildConfig | None, knobs: dict
) -> BuildConfig:
    """Resolve a build call's arguments to one validated ``BuildConfig``.

    ``knobs`` holds only the knobs the caller passed: passed means
    explicit.  With no ``config`` they apply over the defaults and
    ``bandwidth`` is required.  With one, every explicit knob (and
    ``bandwidth``, when given) must agree with it; a disagreement raises
    :class:`~repro.exceptions.ConfigurationError` naming every
    conflicting knob.  A name that is no ``BuildConfig`` field raises
    :class:`TypeError`, as an unknown keyword argument does.

    The kernel request is checked against the backend here too, so an
    unsatisfiable ``kernel="numpy"`` fails before any work starts.
    """
    unknown = sorted(set(knobs) - set(_FIELDS))
    if unknown:
        raise TypeError(
            f"unexpected build keyword argument {unknown[0]!r}; expected "
            f"BuildConfig fields {_FIELDS}"
        )
    if bandwidth is not None:
        knobs = {**knobs, "bandwidth": bandwidth}
    elif config is None:
        raise ConfigurationError(
            "bandwidth is required (pass it directly or via config=)"
        )
    if config is not None and not isinstance(config, BuildConfig):
        raise ConfigurationError(
            f"config= must be a BuildConfig, got {type(config).__name__}"
        )
    explicit = BuildConfig(**knobs)  # validates every passed knob
    if config is None:
        config = explicit
    conflicts = sorted(
        name for name in knobs if getattr(explicit, name) != getattr(config, name)
    )
    if conflicts:
        detail = ", ".join(
            f"{name}={knobs[name]!r} (config has {getattr(config, name)!r})"
            for name in conflicts
        )
        raise ConfigurationError(
            f"kwargs conflict with config=: {detail}; drop one spelling "
            "or make them agree"
        )
    resolve_kernel(config.kernel, flat=config.backend == "flat")
    return config


__all__ = ["CORE_ORDERS", "BuildConfig", "resolve_build_config"]
