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


def sanitize_from_env() -> bool:
    """Default for :attr:`SimConfig.sanitize`, read from ``REPRO_SANITIZE``.

    Evaluated at config *construction* time, so setting the variable
    (or passing ``--sanitize`` to the CLI, which sets it) turns checks
    on for every subsequently built default config — including the ones
    parallel workers build in their own processes.
    """
    return bool_from_env("REPRO_SANITIZE")


def telemetry_path_from_env() -> Optional[str]:
    """Telemetry JSONL log path from ``REPRO_TELEMETRY``, or ``None``.

    Like :func:`sanitize_from_env`, this is evaluated when the consumer
    is built (an :class:`~repro.experiments.runner.ExperimentRunner` or
    a parallel worker), so setting the variable — or passing
    ``--telemetry PATH`` to the CLI, which sets it — enables telemetry
    for every subsequently created runner, including the ones parallel
    workers build in their own processes.
    """
    raw = os.environ.get("REPRO_TELEMETRY", "").strip()
    if not raw:
        return None
    if os.path.isdir(raw):
        raise ConfigError(
            f"REPRO_TELEMETRY must name a file, got directory {raw!r}"
        )
    return raw


def bool_from_env(name: str) -> bool:
    """Read a boolean flag knob (``1/true/yes/on`` vs ``0/false/no/off``)."""
    raw = os.environ.get(name, "").strip().lower()
    if raw in ("", "0", "false", "no", "off"):
        return False
    if raw in ("1", "true", "yes", "on"):
        return True
    raise ConfigError(f"{name} must be a boolean flag, got {raw!r}")


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


def float_from_env(name: str, default: float, lo: float, hi: float) -> float:
    """Read a float knob bounded to ``[lo, hi]``; reject garbage loudly."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{name} must be a number, got {raw!r}") from None
    if not (lo <= value <= hi):
        raise ConfigError(
            f"{name} must be in [{lo}, {hi}], got {value}"
        )
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

    Historical contract (PR 1): any non-empty value except ``0``
    disables the cache — looser than :func:`bool_from_env` on purpose.
    """
    return os.environ.get("REPRO_NO_CACHE", "").strip() not in ("", "0")


def cache_dir_from_env() -> Optional[str]:
    """Disk-cache directory from ``REPRO_CACHE_DIR``, or ``None``.

    ``None`` means "use the consumer's default" (``.repro_cache/`` for
    :func:`repro.experiments.cache.cache_from_env`); the default lives
    with :class:`~repro.experiments.cache.ResultCache`, not here.
    """
    return os.environ.get("REPRO_CACHE_DIR", "").strip() or None


def check_plans_from_env() -> bool:
    """Default for the runner's plan verification (``REPRO_CHECK_PLANS``).

    When on, :meth:`~repro.experiments.runner.ExperimentRunner.plan`
    statically verifies every plan it builds (``repro.staticcheck``)
    and raises on error-severity findings.  Set by the CLI's
    ``--check-plans`` so parallel workers inherit it.
    """
    return bool_from_env("REPRO_CHECK_PLANS")


def service_queue_depth_from_env() -> int:
    """Plan-service request-queue bound from ``REPRO_SERVICE_QUEUE_DEPTH``.

    Requests beyond this bound are shed (``ServiceOverload``) rather
    than buffered, so the knob is the service's backpressure valve.
    """
    return int_from_env("REPRO_SERVICE_QUEUE_DEPTH", 64)


def service_deadline_ms_from_env() -> int:
    """Per-request deadline in milliseconds from ``REPRO_SERVICE_DEADLINE_MS``.

    Covers queue wait plus processing; an expired request fails with
    ``DeadlineExceeded`` and is skipped if still queued.
    """
    return int_from_env("REPRO_SERVICE_DEADLINE_MS", 2000)


def service_reservoir_from_env() -> int:
    """Per-shard reservoir capacity from ``REPRO_SERVICE_RESERVOIR``.

    The plan service folds an unbounded LBR sample stream into at most
    this many retained samples per (app, input) shard.  Sized at or
    above the stream length, the fold is lossless and served plans
    match the offline pipeline exactly (the parity tests pin this).
    """
    return int_from_env("REPRO_SERVICE_RESERVOIR", 8192)


def fleet_workers_from_env() -> int:
    """Initial fleet worker-process count from ``REPRO_FLEET_WORKERS``.

    The sharded plan service (``repro.service.fleet``) spawns this many
    worker processes at start; the autoscaler may grow or shrink the
    pool afterwards within its configured bounds.
    """
    return int_from_env("REPRO_FLEET_WORKERS", 2)


def fleet_replicas_from_env() -> int:
    """Shard replication factor from ``REPRO_FLEET_REPLICAS``.

    Every ``(app, input)`` shard is folded on this many distinct
    workers (primary plus hot spares); the hash ring guarantees
    replicas never co-locate while the fleet has enough members.
    """
    return int_from_env("REPRO_FLEET_REPLICAS", 1)


def fleet_autoscale_from_env() -> bool:
    """Fleet autoscaler toggle from ``REPRO_FLEET_AUTOSCALE``.

    When on, every ``autoscale_tick`` may grow or shrink the worker
    pool from live telemetry (queue depth, shed rate, build latency);
    when off, ticks still record a ``hold`` allocation decision so the
    JSONL decision log stays a complete account of the run.
    """
    return bool_from_env("REPRO_FLEET_AUTOSCALE")


def service_snapshot_dir_from_env() -> Optional[str]:
    """Snapshot directory from ``REPRO_SERVICE_SNAPSHOT_DIR``, or ``None``.

    When set, the plan service periodically persists its per-shard
    ingest state (sketch counters, reservoir contents and RNG state,
    published plan lineage) here, and ``PlanService.restore`` reloads
    the latest valid snapshot on restart.  Unset disables snapshotting.
    """
    return os.environ.get("REPRO_SERVICE_SNAPSHOT_DIR", "").strip() or None


def service_snapshot_every_from_env() -> int:
    """Snapshot cadence in journaled batches (``REPRO_SERVICE_SNAPSHOT_EVERY``).

    A snapshot is written after every N ingested batches (and always at
    drain).  Lower values shorten journal replay on recovery at the
    cost of more frequent snapshot writes.
    """
    return int_from_env("REPRO_SERVICE_SNAPSHOT_EVERY", 16)


def service_journal_from_env() -> Optional[str]:
    """Service WAL mirror path from ``REPRO_SERVICE_JOURNAL``, or ``None``.

    When set, every accepted ingest batch is appended to this JSONL
    write-ahead log before it is folded; recovery replays the suffix
    past the latest snapshot.  Unset keeps the journal in memory only
    (no crash durability).
    """
    return os.environ.get("REPRO_SERVICE_JOURNAL", "").strip() or None


def service_fsync_from_env() -> bool:
    """Journal fsync toggle from ``REPRO_SERVICE_FSYNC``.

    Off (the default), each journaled record is flushed to the OS —
    surviving a process crash; on, each record is also fsynced to
    stable storage — surviving a machine crash, at a per-batch cost.
    """
    return bool_from_env("REPRO_SERVICE_FSYNC")


def service_http_host_from_env() -> str:
    """HTTP transport bind host from ``REPRO_SERVICE_HTTP_HOST``."""
    return os.environ.get("REPRO_SERVICE_HTTP_HOST", "").strip() or "127.0.0.1"


def service_http_port_from_env() -> int:
    """HTTP transport bind port from ``REPRO_SERVICE_HTTP_PORT``.

    Port ``0`` (the default) asks the OS for an ephemeral port; the
    server reports the bound port after startup.  Unlike most integer
    knobs this one therefore accepts zero.
    """
    raw = os.environ.get("REPRO_SERVICE_HTTP_PORT")
    if raw is None or not raw.strip():
        return 0
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_SERVICE_HTTP_PORT must be an integer port, got {raw!r}"
        ) from None
    if value < 0 or value > 65535:
        raise ConfigError(
            f"REPRO_SERVICE_HTTP_PORT must be in [0, 65535], got {value}"
        )
    return value


def drift_canary_from_env() -> bool:
    """Canary-stage toggle from ``REPRO_DRIFT_CANARY``.

    When on, a freshly built :class:`~repro.service.build.PlanVersion`
    for a shard that already serves a plan is *staged* rather than
    activated: post-publish miss feedback is scored against both the
    candidate and the live baseline on a deterministic traffic split,
    and the candidate promotes or auto-rolls-back on the windowed
    verdict.  Off (the default), every build activates immediately —
    the pre-drift behaviour the parity suites pin.
    """
    return bool_from_env("REPRO_DRIFT_CANARY")


def drift_canary_fraction_from_env() -> float:
    """Canary traffic fraction from ``REPRO_DRIFT_CANARY_FRACTION``.

    The deterministic share of post-publish feedback samples scored
    against the canaried candidate (the rest score against the live
    baseline).  Seeded hashing makes the split a pure function of the
    sample and its arrival index, so verdicts are reproducible.
    """
    return float_from_env("REPRO_DRIFT_CANARY_FRACTION", 0.5, 0.01, 0.99)


def drift_window_from_env() -> int:
    """Feedback-window size in samples from ``REPRO_DRIFT_WINDOW``.

    Per-arm effectiveness (covered-miss fraction, prefetch-hit proxy)
    is aggregated over windows of this many scored samples; a window
    closes when full and feeds the regression detector.
    """
    return int_from_env("REPRO_DRIFT_WINDOW", 64)


def drift_windows_from_env() -> int:
    """Closed windows per arm before a verdict (``REPRO_DRIFT_WINDOWS``).

    The canary controller withholds judgement until both the candidate
    and baseline arms have closed this many feedback windows since
    staging, so one unlucky window cannot roll a healthy plan back.
    """
    return int_from_env("REPRO_DRIFT_WINDOWS", 2)


def drift_threshold_from_env() -> float:
    """Regression threshold from ``REPRO_DRIFT_THRESHOLD``.

    A staged candidate rolls back when its mean windowed effectiveness
    trails the baseline's by more than this absolute margin; otherwise
    it promotes.  Small values react faster but amplify sampling noise.
    """
    return float_from_env("REPRO_DRIFT_THRESHOLD", 0.1, 0.0, 1.0)


def sim_mode_from_env() -> str:
    """Simulation-mode default from ``REPRO_SIM_MODE``.

    ``auto`` (the default) uses the batched fast path whenever a run is
    eligible and falls back to the serial loop otherwise; ``fast``
    demands the batched path (raising when a run needs serial-only
    machinery); ``serial`` pins the original per-event loop.  Evaluated
    at simulator construction, so the CLI's ``--sim-mode`` (which sets
    the variable) reaches parallel workers through their environment.
    """
    raw = os.environ.get("REPRO_SIM_MODE", "").strip().lower()
    if not raw:
        return "auto"
    if raw in ("auto", "fast", "serial"):
        return raw
    raise ConfigError(
        f"REPRO_SIM_MODE must be auto, fast, or serial, got {raw!r}"
    )


def default_sweep_sim_mode() -> Optional[str]:
    """The sim mode experiment sweeps should install when none is set.

    Sweeps default to the batched fast path — the parity suite pins it
    counter-for-counter against serial, and profiling runs pin
    ``mode="serial"`` at their own call sites — except under
    ``REPRO_SANITIZE``, where ``auto`` keeps the serial-only sanitizer
    runnable.  Returns ``None`` when ``REPRO_SIM_MODE`` is already set
    (explicit choices, including the ``serial`` opt-out, always win).
    """
    if os.environ.get("REPRO_SIM_MODE"):
        return None
    return "auto" if sanitize_from_env() else "fast"


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
    sanitize: bool = field(default_factory=sanitize_from_env)

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


# Fixed reference config: built with sanitize pinned off so importing
# the package never depends on (or crashes on) REPRO_SANITIZE; the env
# default applies only to configs constructed after import.
DEFAULT_CONFIG = SimConfig(sanitize=False)
