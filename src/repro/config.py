"""Simulation configuration objects.

The defaults mirror Table 1 of the paper: a 3.2GHz 6-wide out-of-order
core with a 24-entry FTQ, an 8192-entry 4-way BTB, a 4096-entry 4-way
indirect BTB, a 32-entry return address stack, a 32KB 8-way L1i, a 1MB
16-way L2, and a 10MB 20-way L3.

All configuration classes are frozen dataclasses: a configuration is a
value, and sweeps produce new configurations via :func:`dataclasses.replace`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from .errors import ConfigError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def int_from_env(name: str, default: int) -> int:
    """Read a positive integer knob; reject garbage loudly."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{name} must be a positive integer, got {raw!r}") from None
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value}")
    return value


def jobs_from_env() -> Optional[int]:
    """Parallel worker count from ``REPRO_JOBS``, or ``None`` when unset.

    The caller (:func:`repro.experiments.parallel.resolve_jobs`)
    applies the default and the lower bound so explicit arguments and
    the env knob share one validation path.
    """
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_JOBS must be a positive integer, got {raw!r}"
        ) from None


def apps_from_env() -> Optional[Tuple[str, ...]]:
    """App subset from ``REPRO_APPS`` (comma-separated), or ``None``.

    Returns the raw names; validation against the known app catalog
    stays with the consumer (:class:`~repro.experiments.runner.RunnerSettings`)
    to keep this module free of workload imports.
    """
    raw = os.environ.get("REPRO_APPS", "")
    if not raw:
        return None
    apps = tuple(a.strip() for a in raw.split(",") if a.strip())
    if not apps:
        raise ConfigError("REPRO_APPS must name at least one app")
    return apps


def results_dir_from_env() -> str:
    """Figure-result output directory from ``REPRO_RESULTS_DIR``."""
    return os.environ.get("REPRO_RESULTS_DIR", "").strip() or "benchmarks/results"


def no_cache_from_env() -> bool:
    """Disk-cache kill switch from ``REPRO_NO_CACHE``.

    Any non-empty value except ``0`` disables the cache.
    """
    return os.environ.get("REPRO_NO_CACHE", "").strip() not in ("", "0")


def cache_dir_from_env() -> Optional[str]:
    """Disk-cache directory from ``REPRO_CACHE_DIR``, or ``None``.

    ``None`` means "use the consumer's default" (``.repro_cache/`` for
    :func:`repro.experiments.cache.cache_from_env`); the default lives
    with :class:`~repro.experiments.cache.ResultCache`, not here.
    """
    return os.environ.get("REPRO_CACHE_DIR", "").strip() or None


def is_power_of_two(value: int) -> bool:
    """Return True when *value* is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class BTBConfig:
    """Geometry of a set-associative branch target buffer.

    ``entries`` is the total entry count; ``ways`` the associativity.
    The number of sets is ``entries // ways`` and must be a power of two
    so that set indexing can use address bits directly.
    """

    entries: int = 8192
    ways: int = 4
    # Bytes of storage per entry, used only for reporting storage budgets
    # (the paper quotes 75KB for the 8K-entry baseline, i.e. ~9.4B/entry).
    entry_bytes: float = 75 * 1024 / 8192

    def __post_init__(self) -> None:
        _require(self.entries > 0, "BTB must have at least one entry")
        _require(self.ways > 0, "BTB associativity must be positive")
        _require(
            self.entries % self.ways == 0,
            f"BTB entries ({self.entries}) must be divisible by ways ({self.ways})",
        )
        _require(
            is_power_of_two(self.entries // self.ways),
            "BTB set count must be a power of two",
        )

    @property
    def sets(self) -> int:
        """Number of sets in the BTB."""
        return self.entries // self.ways

    @property
    def storage_kb(self) -> float:
        """Approximate storage budget in KiB."""
        return self.entries * self.entry_bytes / 1024.0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and hit latency of one cache level."""

    size_bytes: int
    ways: int
    line_bytes: int = 64
    hit_latency: int = 1

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "cache size must be positive")
        _require(self.ways > 0, "cache associativity must be positive")
        _require(is_power_of_two(self.line_bytes), "cache line size must be a power of two")
        _require(
            self.size_bytes % (self.ways * self.line_bytes) == 0,
            "cache size must be divisible by ways * line size",
        )
        _require(is_power_of_two(self.sets), "cache set count must be a power of two")

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


@dataclass(frozen=True)
class MemoryConfig:
    """The cache hierarchy of Table 1 plus memory access latency (cycles)."""

    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=32 * 1024, ways=8, hit_latency=1)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=1024 * 1024, ways=16, hit_latency=14)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=10 * 1024 * 1024, ways=20, hit_latency=40)
    )
    memory_latency: int = 200


@dataclass(frozen=True)
class FrontendConfig:
    """Branch-prediction unit parameters (Table 1)."""

    btb: BTBConfig = field(default_factory=BTBConfig)
    ibtb: BTBConfig = field(default_factory=lambda: BTBConfig(entries=4096, ways=4))
    ras_entries: int = 32
    ftq_size: int = 24
    # TAGE-lite direction predictor geometry.
    tage_tables: int = 6
    tage_entries_per_table: int = 2048
    tage_min_history: int = 4
    tage_max_history: int = 128
    # BTB prefetch buffer (Fig 25); holds prefetched entries until use.
    prefetch_buffer_entries: int = 128

    def __post_init__(self) -> None:
        _require(self.ras_entries > 0, "RAS must have at least one entry")
        _require(self.ftq_size > 0, "FTQ must have at least one entry")
        _require(self.tage_tables >= 1, "TAGE needs at least one tagged table")
        _require(self.prefetch_buffer_entries >= 0, "prefetch buffer size must be >= 0")


@dataclass(frozen=True)
class CoreConfig:
    """Pipeline width and penalty model.

    ``btb_miss_penalty`` is the resteer depth when a taken branch is
    discovered after decode because the BTB had no entry for it;
    ``mispredict_penalty`` is the full flush depth for a wrong direction
    or wrong target.
    """

    width: int = 6
    fetch_width_bytes: int = 32
    btb_miss_penalty: int = 8
    mispredict_penalty: int = 16
    rob_entries: int = 224
    rs_entries: int = 97
    frequency_ghz: float = 3.2

    def __post_init__(self) -> None:
        _require(self.width > 0, "core width must be positive")
        _require(self.fetch_width_bytes > 0, "fetch width must be positive")
        _require(self.btb_miss_penalty >= 0, "btb miss penalty must be >= 0")
        _require(self.mispredict_penalty >= 0, "mispredict penalty must be >= 0")


@dataclass(frozen=True)
class TwigConfig:
    """Parameters of the Twig mechanism itself (§3)."""

    # Cycles a prefetch must precede the BTB lookup of its branch (§3.1).
    prefetch_distance: int = 20
    # Signed-offset width for prefetch->branch and branch->target encodings.
    offset_bits: int = 12
    # Bitmask width of the brcoalesce instruction (§3.2, Fig 27).
    coalesce_bits: int = 8
    # Minimum conditional probability for an injection site to be accepted.
    min_confidence: float = 0.05
    # Minimum number of profiled misses for a branch to be considered.
    # (The paper's 100M-instruction profiles are dense; our scaled
    # traces are sparser, so every sampled miss counts.)
    min_miss_samples: int = 1
    # Cycles between fetch of the injection block and the prefetched entry
    # becoming visible in the prefetch buffer (execute/retire latency).
    prefetch_execute_latency: int = 4
    # Enable/disable the two halves (Fig 18 ablation).
    enable_software_prefetch: bool = True
    enable_coalescing: bool = True

    def __post_init__(self) -> None:
        _require(self.prefetch_distance >= 0, "prefetch distance must be >= 0")
        _require(1 <= self.offset_bits <= 48, "offset bits must be in [1, 48]")
        _require(1 <= self.coalesce_bits <= 64, "coalesce bits must be in [1, 64]")
        _require(0.0 <= self.min_confidence <= 1.0, "confidence must be a probability")


@dataclass(frozen=True)
class SimConfig:
    """Top-level simulator configuration (Table 1 defaults)."""

    core: CoreConfig = field(default_factory=CoreConfig)
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    twig: TwigConfig = field(default_factory=TwigConfig)
    # Limit-study switches (§2.1): every I-cache access hits / every BTB
    # lookup hits.
    ideal_icache: bool = False
    ideal_btb: bool = False
    # Runtime invariant sanitizers (repro.validate): structural checks
    # on the frontend models plus accounting identities on the results.
    # Never changes simulation outcomes — sanitized and plain runs of
    # the same point are counter-for-counter identical — but the cache
    # key still includes it so the two populations stay separate.
    sanitize: bool = False

    def with_btb(self, entries: Optional[int] = None, ways: Optional[int] = None) -> "SimConfig":
        """Return a copy with a resized BTB (used by the sweep figures)."""
        btb = self.frontend.btb
        new_btb = replace(
            btb,
            entries=entries if entries is not None else btb.entries,
            ways=ways if ways is not None else btb.ways,
        )
        return replace(self, frontend=replace(self.frontend, btb=new_btb))

    def with_ftq(self, ftq_size: int) -> "SimConfig":
        """Return a copy with a different FTQ depth (Fig 28)."""
        return replace(self, frontend=replace(self.frontend, ftq_size=ftq_size))

    def with_prefetch_buffer(self, entries: int) -> "SimConfig":
        """Return a copy with a different prefetch-buffer size (Fig 25)."""
        return replace(
            self, frontend=replace(self.frontend, prefetch_buffer_entries=entries)
        )

    def with_twig(self, **kwargs) -> "SimConfig":
        """Return a copy with updated Twig parameters."""
        return replace(self, twig=replace(self.twig, **kwargs))

    def with_sanitize(self, enabled: bool = True) -> "SimConfig":
        """Return a copy with runtime invariant checks toggled."""
        return replace(self, sanitize=enabled)


DEFAULT_CONFIG = SimConfig()
