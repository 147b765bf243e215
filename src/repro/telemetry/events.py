"""Structured JSONL telemetry events (DESIGN.md §9).

A :class:`TelemetrySink` couples a :class:`~repro.telemetry.metrics.MetricsRegistry`
with an append-only JSONL event log.  Every event is one JSON object
per line carrying at least::

    {"v": 1, "event": "<type>", "ts": <unix time>, "pid": <os pid>, ...}

Event types emitted by the instrumented pipeline:

* ``span`` — one timed phase (``phase`` ∈ :data:`PHASES`, plus
  ``duration_s`` and context fields like ``app``/``system``/``input``);
* ``cache_load`` / ``cache_store`` / ``cache_quarantine`` — disk-cache
  traffic (``outcome`` ∈ hit/miss/corrupt for loads);
* ``worker_start`` — a process-pool worker came up;
* ``summary`` — end-of-run registry snapshot plus cache/runner stats.

The file is opened in append mode, so parallel workers handed the same
log path (``RunnerSettings.telemetry_path``) write interleaved complete
lines into one log (each line is flushed whole; readers skip any
malformed line).

The sink is the *enabled* half of a zero-cost-when-off design: code
holds ``Optional[TelemetrySink]`` and guards every call with one
``None`` check, exactly like the sanitizer pattern (DESIGN.md §8).
Telemetry never touches simulation state or RNG streams, so a
telemetry-on run is counter-for-counter identical to a plain run
(pinned by ``tests/test_determinism.py``).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Dict, Optional

from ..errors import ReproError
from .metrics import MetricsRegistry

SCHEMA_VERSION = 1

# The five instrumented pipeline stages, in pipeline order.
PHASES = (
    "workload_build",
    "trace_gen",
    "profile_collect",
    "plan_build",
    "simulate",
)

# Plan-service stages (repro.service), in request order: ingest fold,
# incremental plan build, staticcheck publish gate, request handling,
# plus the durability path (periodic state snapshots; ``service_restore``
# is emitted as a plain event, not a span, since it runs pre-loop).
SERVICE_PHASES = (
    "service_ingest",
    "service_build",
    "service_check",
    "service_request",
    "service_snapshot",
)


class TelemetrySink:
    """Metrics registry + JSONL event writer for one process."""

    def __init__(self, path: str, registry: Optional[MetricsRegistry] = None):
        if not path:
            raise ReproError("telemetry path must be a non-empty file path")
        self.path = path
        self.registry = registry if registry is not None else MetricsRegistry()
        parent = os.path.dirname(os.path.abspath(path))
        try:
            os.makedirs(parent, exist_ok=True)
            self._fh = open(path, "a", encoding="utf-8")
        except OSError as exc:
            raise ReproError(f"cannot open telemetry log {path!r}: {exc}") from exc
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    def emit(self, event: str, **fields) -> None:
        """Append one event line; whole-line write + flush."""
        # Wall-clock timestamps are observability metadata, never results.
        record = {"v": SCHEMA_VERSION, "event": event, "ts": time.time(), "pid": self._pid}  # staticcheck: disable=L102
        record.update(fields)
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()

    @contextmanager
    def span(self, phase: str, **fields):
        """Time one pipeline phase; records a timer and emits a span event."""
        t0 = time.perf_counter()  # staticcheck: disable=L102
        try:
            yield
        finally:
            dt = time.perf_counter() - t0  # staticcheck: disable=L102
            self.registry.add_time(f"phase.{phase}", dt)
            self.emit("span", phase=phase, duration_s=dt, **fields)

    # ------------------------------------------------------------------
    def on_sim_run(self, result, fetch_units: int) -> None:
        """Coarse per-run counters from one timing-simulator run.

        The runner calls it once per simulation, after
        :meth:`FrontendSimulator.run` returns, so the simulator itself
        carries no telemetry.
        """
        reg = self.registry
        reg.inc("sim.runs")
        reg.inc("sim.fetch_units", fetch_units)
        reg.inc("sim.instructions", result.instructions)
        reg.inc("sim.cycles", result.cycles)
        reg.inc("sim.btb_misses", result.btb_misses)

    def record_worker(self, pid: int, delta: Optional[Dict]) -> None:
        """Fold one worker request's metrics delta into this registry."""
        self.registry.inc(f"worker.{pid}.requests")
        self.registry.merge(delta)

    # ------------------------------------------------------------------
    def emit_summary(self, cache_stats=None, runner_stats=None) -> None:
        """End-of-run summary: registry snapshot + cache/runner stats."""
        fields: Dict = {"metrics": self.registry.snapshot()}
        if cache_stats is not None:
            fields["cache"] = {
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "stores": cache_stats.stores,
                "quarantined": cache_stats.quarantined,
                "quarantine_deleted": cache_stats.quarantine_deleted,
            }
        if runner_stats is not None:
            fields["runner"] = {
                "simulations": runner_stats.simulations,
                "profiles_collected": runner_stats.profiles_collected,
                "disk_hits": runner_stats.disk_hits,
                "parallel_runs": runner_stats.parallel_runs,
            }
        self.emit("summary", **fields)

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass

