"""Sharded multi-process plan service: router + elastic worker pool.

This is the scale-out layer over :class:`~repro.service.server.PlanService`
(DESIGN.md §13).  A :class:`FleetRouter` runs in the driving process
and owns the control plane; each fleet worker is a separate OS process
running today's asyncio ``PlanService`` verbatim — the fleet adds
placement, durability, and elasticity, never analysis, so the
online==offline parity theorem survives intact:

* **placement** — a seeded :class:`~repro.service.ring.HashRing` maps
  every ``(app, input)`` shard to a primary worker plus
  ``replicas - 1`` hot spares, with weighted rebalancing that moves
  only the keys whose owner actually changed;
* **bounded queues** — each worker has a bounded router-side request
  queue; an arrival that finds it full is shed immediately
  (:class:`~repro.errors.ServiceOverload`), exactly the single-process
  discipline, now per shard-owner;
* **durability** — every accepted batch lands in the router's
  :class:`~repro.service.journal.IngestJournal` *at acceptance*, so a
  worker crash (:class:`~repro.errors.WorkerCrashed`) is recovered by
  replaying the journal into a replacement; shed batches were never
  journaled, which keeps client retries exactly-once safe;
* **elasticity** — an :class:`Autoscaler` turns live telemetry (queue
  depth, shed rate, build latency) into grow/shrink/hold decisions,
  recorded as JSONL allocation-decision lines the way adaptdl's
  monitor loop records elastic reallocations;
* **drain** — ``stop()`` heals any crashed shard first, then drains
  every worker FIFO behind its backlog; each worker's ``PlanService``
  force-publishes its dirty shards, so no journaled shard is ever
  abandoned.

The per-worker transport is one lockstep IO thread over a
``multiprocessing.Pipe``: requests are sent and acknowledged strictly
FIFO, so per-shard fold order equals journal order — the ordering half
of parity — and a replayed prefix is always folded before any request
queued after it.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import multiprocessing
import os
import queue as queue_mod
import threading
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..config import ConfigError, SimConfig
from ..errors import (
    DeadlineExceeded,
    FleetError,
    ReproError,
    ServiceClosed,
    ServiceError,
    ServiceOverload,
    WorkerCrashed,
)
from ..profiling.profile import MissSample
from ..telemetry.events import TelemetrySink
from ..telemetry.metrics import MetricsRegistry
from .build import PlanVersion
from .ingest import SampleBatch, ShardKey
from .journal import IngestJournal
from .ring import DEFAULT_VNODES, HashRing
from .server import PlanService, ServiceConfig, default_workload_resolver

DECISION_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetConfig:
    """Fleet-layer knobs."""

    # Initial worker processes; the autoscaler may grow or shrink the
    # pool within [min_workers, max_workers].
    workers: int = 2
    # Workers folding each shard (primary plus hot spares).
    replicas: int = 1
    # Off: every autoscale_tick records a ``hold`` decision.
    autoscale: bool = False
    min_workers: int = 1
    max_workers: int = 8
    # Router-side bounded queue per worker (outstanding requests).
    queue_depth: int = 64
    # Budget the router grants each forwarded request inside the worker.
    worker_deadline_ms: int = 60_000
    # Router-side wait bound on a worker response (covers queue wait,
    # replay backlog, and the build itself).
    request_timeout_s: float = 120.0
    ring_vnodes: int = DEFAULT_VNODES
    # multiprocessing start method: auto prefers fork (cheap) and falls
    # back to spawn where fork is unavailable.
    start_method: str = "auto"
    seed: int = 0
    # Autoscaler policy (consumed by Autoscaler).
    grow_queue_frac: float = 0.75
    grow_shed_delta: int = 1
    grow_build_latency_s: float = 30.0
    shrink_queue_frac: float = 0.05
    shrink_idle_ticks: int = 3

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ConfigError(f"fleet workers must be positive, got {self.workers}")
        if self.replicas < 1:
            raise ConfigError(f"fleet replicas must be >= 1, got {self.replicas}")
        if self.min_workers < 1:
            raise ConfigError(
                f"min_workers must be >= 1, got {self.min_workers}"
            )
        if self.max_workers < self.min_workers:
            raise ConfigError(
                f"max_workers ({self.max_workers}) must be >= min_workers "
                f"({self.min_workers})"
            )
        if not (self.min_workers <= self.workers <= self.max_workers):
            raise ConfigError(
                f"initial workers ({self.workers}) must lie in "
                f"[{self.min_workers}, {self.max_workers}]"
            )
        if self.queue_depth <= 0:
            raise ConfigError(
                f"fleet queue_depth must be positive, got {self.queue_depth}"
            )
        if self.worker_deadline_ms <= 0:
            raise ConfigError(
                f"worker_deadline_ms must be positive, got {self.worker_deadline_ms}"
            )
        if self.request_timeout_s <= 0:
            raise ConfigError(
                f"request_timeout_s must be positive, got {self.request_timeout_s}"
            )
        if self.start_method not in ("auto", "fork", "spawn", "forkserver"):
            raise ConfigError(
                f"start_method must be auto/fork/spawn/forkserver, "
                f"got {self.start_method!r}"
            )
        if not (0.0 < self.grow_queue_frac <= 1.0):
            raise ConfigError(
                f"grow_queue_frac must be in (0, 1], got {self.grow_queue_frac}"
            )
        if not (0.0 <= self.shrink_queue_frac < self.grow_queue_frac):
            raise ConfigError(
                "shrink_queue_frac must be in [0, grow_queue_frac), got "
                f"{self.shrink_queue_frac}"
            )
        if self.shrink_idle_ticks < 1:
            raise ConfigError(
                f"shrink_idle_ticks must be >= 1, got {self.shrink_idle_ticks}"
            )


# ----------------------------------------------------------------------
# Worker process side
# ----------------------------------------------------------------------
def _fleet_worker_entry(
    conn,
    worker_id: str,
    config: ServiceConfig,
    sim_config: Optional[SimConfig],
    telemetry_path: Optional[str],
    workload_seed: int,
    snapshot_dir: Optional[str] = None,
) -> None:
    """Process target: run one ``PlanService`` over a router pipe."""
    sink = TelemetrySink(telemetry_path) if telemetry_path else None
    if snapshot_dir is not None:
        # Per-worker durability: the router hands each worker its own
        # snapshot directory (keyed by worker id, which a restarted
        # router regenerates identically), layered over whatever config
        # the caller supplied.
        config = replace(config, snapshot_dir=snapshot_dir)
    service = PlanService(
        workload_for=default_workload_resolver(workload_seed),
        config=config,
        sim_config=sim_config,
        telemetry=sink,
    )
    if config.snapshot_dir:
        # Snapshot-only restore: the WAL lives router-side, so the
        # worker recovers its fold state + plan lineage from its own
        # snapshots and the router replays just the journal suffix.
        # Runs here, before the event loop exists, so its blocking file
        # reads cannot stall served requests.
        service.restore()
    asyncio.run(_fleet_worker_loop(conn, worker_id, service, sink))


async def _fleet_worker_loop(conn, worker_id: str, service: PlanService,
                             sink: Optional[TelemetrySink]) -> None:
    await service.start()
    loop = asyncio.get_running_loop()
    running = True
    while running:
        try:
            request = await loop.run_in_executor(None, conn.recv)
        except (EOFError, OSError):
            # Router vanished: force-publish what we hold, then exit.
            await service.stop()
            break
        try:
            value = await _dispatch(service, worker_id, request)
        except ReproError as exc:
            reply = {"ok": False, "error": exc}
        else:
            reply = {"ok": True, "value": value}
        if request.get("kind") == "drain":
            running = False
        try:
            # Replies can carry whole plan versions; pickling + the
            # pipe write belong off the loop just like the recv side.
            # The loop body is strictly sequential (recv → dispatch →
            # send), so the executor hop cannot reorder replies.
            await loop.run_in_executor(None, conn.send, reply)
        except (EOFError, OSError):
            break
    if sink is not None:
        sink.emit_summary()
        sink.close()
    conn.close()


async def _dispatch(service: PlanService, worker_id: str, request: Dict):
    kind = request.get("kind")
    deadline_ms = request.get("deadline_ms")
    if kind == "ingest":
        return await service.ingest(
            request["app"],
            request["input"],
            request["samples"],
            seq=request["seq"],
            deadline_ms=deadline_ms,
        )
    if kind == "plan":
        return await service.get_plan(
            request["app"], request["input"], deadline_ms=deadline_ms
        )
    if kind == "forget":
        return await service.forget(
            request["app"], request["input"], deadline_ms=deadline_ms
        )
    if kind == "hello":
        # Restore handshake: the router seeds its per-shard delivery
        # cursors from the batches this worker already folded out of
        # its own snapshots, so journal replay starts at the suffix.
        return {
            "worker_id": worker_id,
            "pid": os.getpid(),
            "restore": dict(service.restore_report or {}),
            "shards": {
                key: service.buffer.get(key).counters.batches
                for key in service.buffer.keys()
            },
        }
    if kind == "stats":
        snapshot = service.stats_snapshot()
        snapshot["pid"] = os.getpid()
        snapshot["worker_id"] = worker_id
        snapshot["metrics"] = service.metrics.snapshot()
        snapshot["config"] = {
            "queue_depth": service.config.queue_depth,
            "deadline_ms": service.config.deadline_ms,
            "reservoir_capacity": service.config.reservoir_capacity,
            "hot_threshold": service.config.hot_threshold,
            "workers": service.config.workers,
        }
        return snapshot
    if kind == "drain":
        stats = await service.stop()
        stats["pid"] = os.getpid()
        stats["worker_id"] = worker_id
        return stats
    raise ServiceError(f"unknown fleet request kind {kind!r}")


# ----------------------------------------------------------------------
# Router side: one handle + IO thread per worker
# ----------------------------------------------------------------------
class _FleetRequest:
    __slots__ = ("message", "future")

    def __init__(self, message: Dict):
        self.message = message
        self.future: concurrent.futures.Future = concurrent.futures.Future()


class _WorkerHandle:
    """Router-side view of one worker: process, pipe, bounded queue.

    A single IO thread sends queued requests strictly FIFO and blocks
    for each acknowledgement, so everything the router enqueues for a
    worker is folded in enqueue order — the fleet's ordering guarantee.
    """

    def __init__(self, worker_id: str, process, conn, queue_depth: int):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.pid: int = process.pid
        self.queue_depth = queue_depth
        self.queue: "queue_mod.Queue[_FleetRequest]" = queue_mod.Queue(
            maxsize=queue_depth
        )
        self.dead = False
        self.draining = False
        self.max_queue_depth = 0
        self.sheds = 0
        self.requests = 0
        self._thread = threading.Thread(
            target=self._pump, name=f"fleet-io-{worker_id}", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    def submit(
        self, message: Dict, block: bool = False, timeout: Optional[float] = None
    ) -> concurrent.futures.Future:
        """Enqueue one request; full queue sheds unless *block* is set."""
        if self.dead:
            raise WorkerCrashed(
                f"fleet worker {self.worker_id} (pid {self.pid}) is dead"
            )
        item = _FleetRequest(message)
        if block:
            try:
                self.queue.put(item, timeout=timeout)
            except queue_mod.Full:
                raise FleetError(
                    f"fleet worker {self.worker_id} backlogged; blocking "
                    f"submit timed out after {timeout}s"
                ) from None
        else:
            try:
                self.queue.put_nowait(item)
            except queue_mod.Full:
                self.sheds += 1
                raise ServiceOverload(
                    f"fleet worker {self.worker_id} queue full "
                    f"(depth {self.queue_depth}); "
                    f"{message.get('kind')} request shed"
                ) from None
        self.requests += 1
        depth = self.queue.qsize()
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        return item.future

    def mark_dead(self) -> None:
        """Fail everything queued; the pump exits at its next poll."""
        self.dead = True
        while True:
            try:
                item = self.queue.get_nowait()
            except queue_mod.Empty:
                break
            if not item.future.done():
                item.future.set_exception(
                    WorkerCrashed(
                        f"fleet worker {self.worker_id} (pid {self.pid}) "
                        "died with this request queued"
                    )
                )

    def join(self, timeout: float = 10.0) -> None:
        self.process.join(timeout)
        self._thread.join(timeout)
        try:
            self.conn.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    def _pump(self) -> None:
        while True:
            try:
                item = self.queue.get(timeout=0.05)
            except queue_mod.Empty:
                if self.dead:
                    return
                continue
            if self.dead:
                if not item.future.done():
                    item.future.set_exception(
                        WorkerCrashed(
                            f"fleet worker {self.worker_id} (pid {self.pid}) "
                            "died with this request queued"
                        )
                    )
                continue
            try:
                self.conn.send(item.message)
                reply = self.conn.recv()
            except (EOFError, OSError):
                if not item.future.done():
                    item.future.set_exception(
                        WorkerCrashed(
                            f"fleet worker {self.worker_id} (pid {self.pid}) "
                            f"died mid-{item.message.get('kind')}"
                        )
                    )
                self.mark_dead()
                return
            if reply.get("ok"):
                if not item.future.done():
                    item.future.set_result(reply.get("value"))
            else:
                if not item.future.done():
                    item.future.set_exception(reply.get("error"))
            if item.message.get("kind") == "drain":
                return


# ----------------------------------------------------------------------
# Autoscaler
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AllocationDecision:
    """One autoscaler tick's outcome (JSONL-serializable)."""

    tick: int
    action: str  # grow | shrink | hold
    reason: str
    workers: Dict[str, float]  # ring weights after the action
    signals: Dict

    def to_record(self) -> Dict:
        return {
            "v": DECISION_SCHEMA_VERSION,
            "schema_version": DECISION_SCHEMA_VERSION,
            "event": "allocation",
            "tick": self.tick,
            "action": self.action,
            "reason": self.reason,
            "workers": self.workers,
            "signals": self.signals,
        }


class Autoscaler:
    """Grow/shrink policy over live fleet telemetry.

    Pure and deterministic: ``decide()`` consumes one signals dict
    (queue-depth fraction, shed delta, build latency) and returns an
    action plus a human-readable reason.  The only state is the idle
    streak used to debounce shrinking — a single quiet tick must not
    tear a worker down.
    """

    def __init__(self, config: FleetConfig):
        self.config = config
        self.idle_ticks = 0

    def decide(self, signals: Dict) -> Tuple[str, str]:
        cfg = self.config
        workers = signals["workers"]
        max_queue_frac = signals.get("max_queue_frac", 0.0)
        sheds_delta = signals.get("sheds_delta", 0)
        build_latency = signals.get("build_latency_s")

        pressure = None
        if sheds_delta >= cfg.grow_shed_delta:
            pressure = f"shed {sheds_delta} request(s) since last tick"
        elif max_queue_frac >= cfg.grow_queue_frac:
            pressure = (
                f"queue {max_queue_frac:.0%} full "
                f"(threshold {cfg.grow_queue_frac:.0%})"
            )
        elif build_latency is not None and build_latency >= cfg.grow_build_latency_s:
            pressure = (
                f"mean build latency {build_latency:.2f}s "
                f"(threshold {cfg.grow_build_latency_s:.2f}s)"
            )

        if pressure is not None:
            self.idle_ticks = 0
            if workers >= cfg.max_workers:
                return "hold", f"{pressure}, but pool at max ({cfg.max_workers})"
            return "grow", pressure

        if max_queue_frac <= cfg.shrink_queue_frac and sheds_delta == 0:
            self.idle_ticks += 1
            if self.idle_ticks >= cfg.shrink_idle_ticks:
                if workers <= cfg.min_workers:
                    return "hold", (
                        f"idle {self.idle_ticks} tick(s), but pool at min "
                        f"({cfg.min_workers})"
                    )
                self.idle_ticks = 0
                return "shrink", (
                    f"idle {cfg.shrink_idle_ticks} consecutive tick(s) "
                    f"(queue <= {cfg.shrink_queue_frac:.0%}, no sheds)"
                )
            return "hold", (
                f"idle streak {self.idle_ticks}/{cfg.shrink_idle_ticks}"
            )

        self.idle_ticks = 0
        return "hold", "load within bounds"


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
class FleetRouter:
    """Consistent-hash router over a pool of ``PlanService`` processes."""

    def __init__(
        self,
        config: Optional[FleetConfig] = None,
        service_config: Optional[ServiceConfig] = None,
        sim_config: Optional[SimConfig] = None,
        telemetry_path: Optional[str] = None,
        journal_path: Optional[str] = None,
        journal_fsync: bool = False,
        snapshot_dir: Optional[str] = None,
        decisions_path: Optional[str] = None,
        workload_seed: int = 0,
    ):
        self.config = config if config is not None else FleetConfig()
        self.service_config = (
            service_config if service_config is not None else ServiceConfig()
        )
        self.sim_config = sim_config
        self.telemetry_path = telemetry_path
        self.telemetry = (
            TelemetrySink(telemetry_path) if telemetry_path else None
        )
        self.metrics: MetricsRegistry = (
            self.telemetry.registry if self.telemetry is not None else MetricsRegistry()
        )
        self.workload_seed = workload_seed
        self.ring = HashRing(
            seed=self.config.seed, vnodes_per_weight=self.config.ring_vnodes
        )
        # Resume mode: a router restarted on an existing mirror loads it
        # (truncating any torn tail) and continues the per-shard index
        # sequence; plain append mode would restart indices at zero and
        # corrupt the mirror for every future reader.  On first contact
        # with a resumed shard, ``_catch_up`` replays the loaded prefix
        # into the new owner, so restart recovery falls out of the same
        # path that heals crashed workers.
        self.journal = IngestJournal(
            journal_path, fsync=journal_fsync, resume=True
        )
        # Per-worker snapshot root: each worker gets snapshot_dir/<id>,
        # and ids regenerate w0..wN-1 on a fresh router, so a
        # fleet-wide kill restores every worker from its own snapshots
        # instead of replaying the router journal from batch 0.
        self.snapshot_dir = snapshot_dir
        self.autoscaler = Autoscaler(self.config)
        self.decisions: List[AllocationDecision] = []
        self._decisions_fh = None
        if decisions_path:
            parent = os.path.dirname(os.path.abspath(decisions_path))
            try:
                os.makedirs(parent, exist_ok=True)
                self._decisions_fh = open(decisions_path, "a", encoding="utf-8")
            except OSError as exc:
                raise FleetError(
                    f"cannot open decisions log {decisions_path!r}: {exc}"
                ) from exc
        method = self.config.start_method
        if method == "auto":
            method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._mp = multiprocessing.get_context(method)
        self.start_method = method
        self._handles: Dict[str, _WorkerHandle] = {}
        # Contiguous journal prefix each worker has been sent, per shard.
        self._delivered: Dict[Tuple[str, ShardKey], int] = {}
        self._lock = threading.RLock()
        self._next_worker = 0
        self._tick = 0
        self._last_sheds = 0
        self._started = False
        self._closed = False
        self.crashed_workers: List[str] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FleetRouter":
        with self._lock:
            if self._started:
                raise FleetError("fleet already started")
            for _ in range(self.config.workers):
                self._spawn_worker()
            self._started = True
            self._closed = False
        return self

    def __enter__(self) -> "FleetRouter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._started:
            self.stop()

    def _spawn_worker(self) -> _WorkerHandle:
        worker_id = f"w{self._next_worker}"
        self._next_worker += 1
        worker_snapshot_dir = (
            os.path.join(self.snapshot_dir, worker_id)
            if self.snapshot_dir
            else None
        )
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=_fleet_worker_entry,
            args=(
                child_conn,
                worker_id,
                self.service_config,
                self.sim_config,
                self.telemetry_path,
                self.workload_seed,
                worker_snapshot_dir,
            ),
            name=f"fleet-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(
            worker_id, process, parent_conn, self.config.queue_depth
        )
        self._handles[worker_id] = handle
        self.ring.add(worker_id)
        self.metrics.inc("fleet.workers_spawned")
        if worker_snapshot_dir is not None:
            self._greet_worker(handle)
        return handle

    def _greet_worker(self, handle: _WorkerHandle) -> None:
        """Seed delivery cursors from the worker's restored snapshots.

        A restored worker already holds a contiguous journal prefix per
        shard (its ``counters.batches``); recording that prefix as
        delivered makes ``_catch_up`` replay only the suffix.  The
        cursor is clamped to the journal's count so a worker that
        outran a lost journal tail never points past the end.
        """
        try:
            hello = handle.submit(
                {"kind": "hello"},
                block=True,
                timeout=self.config.request_timeout_s,
            ).result(timeout=self.config.request_timeout_s)
        except (ReproError, concurrent.futures.TimeoutError):
            # A worker that dies during the handshake is reaped by the
            # next operation; it simply starts with empty cursors.
            self.metrics.inc("fleet.hello_failures")
            return
        seeded = 0
        for key, batches in sorted(hello.get("shards", {}).items()):
            have = min(int(batches), self.journal.count(key))
            if have > 0:
                self._delivered[(handle.worker_id, key)] = have
                seeded += have
        if seeded:
            self.metrics.inc("fleet.workers_restored")
            self.metrics.inc("fleet.seeded_batches", seeded)
            if self.telemetry is not None:
                self.telemetry.emit(
                    "fleet_worker_restore",
                    worker=handle.worker_id,
                    seeded_batches=seeded,
                    restore=hello.get("restore", {}),
                )

    def stop(self) -> Dict:
        """Fleet-wide graceful drain.

        Heals crashed shards first (journal replay into the current
        owners), then queues a drain behind every worker's backlog;
        each worker's ``PlanService.stop()`` force-publishes its dirty
        shards.  Returns the merged fleet report.
        """
        with self._lock:
            if not self._started:
                raise FleetError("fleet not started")
            self._closed = True
            self._reap_dead()
            # Every journaled shard must be fully delivered to its
            # current owners before they drain, or a crash just before
            # stop() would strand the shard unpublished.
            for key in self.journal.keys():
                for owner in self._owners(key):
                    self._catch_up(owner, key)
            futures: Dict[str, concurrent.futures.Future] = {}
            for worker_id in sorted(self._handles):
                handle = self._handles[worker_id]
                handle.draining = True
                try:
                    futures[worker_id] = handle.submit(
                        {"kind": "drain"},
                        block=True,
                        timeout=self.config.request_timeout_s,
                    )
                except WorkerCrashed:
                    self.crashed_workers.append(worker_id)
            worker_stats: Dict[str, Dict] = {}
            for worker_id, future in sorted(futures.items()):
                try:
                    worker_stats[worker_id] = future.result(
                        timeout=self.config.request_timeout_s
                    )
                except (WorkerCrashed, concurrent.futures.TimeoutError) as exc:
                    worker_stats[worker_id] = {"drain_error": str(exc)}
                    self.metrics.inc("fleet.drain_failures")
            for worker_id in sorted(self._handles):
                self._handles[worker_id].join()
            self._note_worker_telemetry()
            report = self._final_report(worker_stats)
            self._record_decision(
                "drain", "fleet stopped", {"workers": len(self._handles)}
            )
            if self.telemetry is not None:
                self.telemetry.emit("fleet_drain", stats=report["router"])
                self.telemetry.emit_summary()
                self.telemetry.close()
            self.journal.close()
            if self._decisions_fh is not None:
                try:
                    self._decisions_fh.close()
                except OSError:
                    pass
                self._decisions_fh = None
            self._handles.clear()
            self._started = False
            return report

    def _note_worker_telemetry(self) -> None:
        """Per-pid router-side counters (shed / queue depth) for the report."""
        for worker_id in sorted(self._handles):
            handle = self._handles[worker_id]
            self.metrics.inc(f"fleet.worker.{handle.pid}.shed", handle.sheds)
            self.metrics.inc(
                f"fleet.worker.{handle.pid}.requests", handle.requests
            )
            self.metrics.set_gauge(
                f"fleet.worker.{handle.pid}.max_queue_depth",
                handle.max_queue_depth,
            )

    def _final_report(self, worker_stats: Dict[str, Dict]) -> Dict:
        published: Dict[str, int] = {}
        dirty: List[str] = []
        for worker_id in sorted(worker_stats):
            stats = worker_stats[worker_id]
            for shard_name, shard in stats.get("shards", {}).items():
                if shard.get("plan_version", 0) >= 1:
                    published[shard_name] = max(
                        published.get(shard_name, 0), shard["plan_version"]
                    )
                if shard.get("dirty"):
                    dirty.append(f"{worker_id}:{shard_name}")
        abandoned = [
            "/".join(key)
            for key in self.journal.keys()
            if "/".join(key) not in published
        ]
        return {
            "workers": worker_stats,
            "router": {
                "counters": dict(self.metrics.counters),
                "journal": self.journal.stats(),
                "ring": self.ring.describe(),
                "decisions": len(self.decisions),
                "crashed_workers": list(self.crashed_workers),
                "published": published,
            },
            "dirty_shards": dirty,
            "abandoned_shards": abandoned,
        }

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def ingest(self, app_name: str, input_label: str, samples, seq: int = 0):
        """Route one batch, journal it, and wait for the primary's ack."""
        return self._result(
            self.ingest_async(app_name, input_label, samples, seq=seq), "ingest"
        )

    def ingest_async(
        self, app_name: str, input_label: str, samples, seq: int = 0
    ) -> concurrent.futures.Future:
        """Like :meth:`ingest` but returns the ack future (pipelining).

        Raises :class:`~repro.errors.ServiceOverload` when the primary's
        queue is full — the batch was *not* journaled and is safe to
        retry.  A later :class:`~repro.errors.WorkerCrashed` on the
        future means the batch *is* journaled and must not be resent.
        """
        batch = SampleBatch(
            app_name=app_name,
            input_label=input_label,
            samples=tuple(
                s if isinstance(s, MissSample) else MissSample(*s) for s in samples
            ),
            seq=seq,
        )
        with self._lock:
            self._check_open()
            self._reap_dead()
            for attempt in range(3):
                owners = self._owners(batch.key)
                primary = owners[0]
                handle = self._handles[primary]
                try:
                    self._catch_up(primary, batch.key)
                    index = self.journal.count(batch.key)
                    future = handle.submit(self._message(batch))
                except WorkerCrashed:
                    self._reap_dead()
                    continue
                break
            else:
                raise FleetError(
                    "ingest could not find a live primary after 3 attempts"
                )
            self.journal.record(batch)
            self._delivered[(primary, batch.key)] = index + 1
            self.metrics.inc("fleet.batches")
            self.metrics.inc("fleet.samples", len(batch.samples))
            for replica in owners[1:]:
                self._offer_replica(replica, batch.key, index, batch)
            return future

    def _offer_replica(
        self, replica: str, key: ShardKey, index: int, batch: SampleBatch
    ) -> None:
        """Best-effort replica delivery: contiguous-prefix or skip.

        A replica that already missed a batch (shed, or freshly placed)
        is *stale* — sending it newer batches would create a gap, so
        deliveries stop until a promotion or rebalance replays it back
        to health from the journal.
        """
        if self._delivered.get((replica, key), 0) != index:
            self.metrics.inc("fleet.replica_stale_skips")
            return
        try:
            self._handles[replica].submit(self._message(batch))
        except ServiceOverload:
            self.metrics.inc("fleet.replica_sheds")
        except WorkerCrashed:
            pass  # reaped by the next operation
        else:
            self._delivered[(replica, key)] = index + 1

    def get_plan(self, app_name: str, input_label: str) -> PlanVersion:
        """The latest verified plan for a shard, from its primary.

        Survives worker crashes transparently: a dead primary is
        reaped, its replacement (or the promoted replica) is caught up
        from the journal, and the request retries.
        """
        key: ShardKey = (app_name, input_label)
        last_error: Optional[ReproError] = None
        for attempt in range(3):
            with self._lock:
                self._check_open(allow_draining=True)
                self._reap_dead()
                if self.journal.count(key) == 0:
                    raise ServiceError(
                        f"no samples ingested for shard {key}; nothing to plan"
                    )
                primary = self._owners(key)[0]
                handle = self._handles[primary]
                try:
                    self._catch_up(primary, key)
                    future = handle.submit(
                        {
                            "kind": "plan",
                            "app": app_name,
                            "input": input_label,
                            "deadline_ms": self.config.worker_deadline_ms,
                        },
                        block=True,
                        timeout=self.config.request_timeout_s,
                    )
                except WorkerCrashed as exc:
                    last_error = exc
                    continue
            try:
                version = self._result(future, "plan")
            except WorkerCrashed as exc:
                last_error = exc
                self.metrics.inc("fleet.plan_retries_after_crash")
                continue
            self.metrics.inc("fleet.plans_served")
            return version
        raise FleetError(
            f"get_plan for shard {key} failed on 3 attempts; last worker "
            f"error: {last_error}"
        )

    def stats(self) -> Dict:
        """Fleet snapshot: router counters plus every worker's stats."""
        with self._lock:
            self._check_open(allow_draining=True)
            self._reap_dead()
            futures: Dict[str, concurrent.futures.Future] = {}
            for worker_id in sorted(self._handles):
                try:
                    futures[worker_id] = self._handles[worker_id].submit(
                        {"kind": "stats"},
                        block=True,
                        timeout=self.config.request_timeout_s,
                    )
                except WorkerCrashed:
                    continue
            snapshot = self.router_snapshot()
        workers: Dict[str, Dict] = {}
        for worker_id, future in sorted(futures.items()):
            try:
                workers[worker_id] = self._result(future, "stats")
            except (WorkerCrashed, DeadlineExceeded) as exc:
                workers[worker_id] = {"stats_error": str(exc)}
        snapshot["workers"] = workers
        return snapshot

    def router_snapshot(self) -> Dict:
        """Router-local view (no worker round trips)."""
        with self._lock:
            return {
                "closed": self._closed,
                "tick": self._tick,
                "ring": self.ring.describe(),
                "journal": self.journal.stats(),
                "counters": dict(self.metrics.counters),
                "crashed_workers": list(self.crashed_workers),
                "worker_queues": {
                    worker_id: {
                        "pid": handle.pid,
                        "queue_depth": handle.queue.qsize(),
                        "max_queue_depth": handle.max_queue_depth,
                        "sheds": handle.sheds,
                        "requests": handle.requests,
                        "alive": not handle.dead,
                    }
                    for worker_id, handle in sorted(self._handles.items())
                },
            }

    # ------------------------------------------------------------------
    # Elasticity
    # ------------------------------------------------------------------
    def add_worker(self) -> str:
        """Grow the pool by one worker (keys move to it lazily)."""
        with self._lock:
            self._check_open()
            if len(self._handles) >= self.config.max_workers:
                raise FleetError(
                    f"fleet already at max_workers ({self.config.max_workers})"
                )
            handle = self._spawn_worker()
            # Eagerly heal every shard the new membership re-placed so
            # reads served right after the grow stay correct.
            for key in self.journal.keys():
                for owner in self._owners(key):
                    self._catch_up(owner, key)
            self.metrics.inc("fleet.grown")
            return handle.worker_id

    def remove_worker(self, worker_id: str) -> Dict:
        """Shrink: move the worker's keys away, then drain it."""
        with self._lock:
            self._check_open()
            handle = self._handles.get(worker_id)
            if handle is None:
                raise FleetError(f"unknown fleet worker {worker_id!r}")
            if len(self._handles) <= self.config.min_workers:
                raise FleetError(
                    f"fleet already at min_workers ({self.config.min_workers})"
                )
            self.ring.remove(worker_id)
            for key in self.journal.keys():
                for owner in self._owners(key):
                    self._catch_up(owner, key)
            handle.draining = True
            try:
                future = handle.submit(
                    {"kind": "drain"},
                    block=True,
                    timeout=self.config.request_timeout_s,
                )
                stats = self._result(future, "drain")
            except WorkerCrashed as exc:
                stats = {"drain_error": str(exc)}
            handle.join()
            self._handles.pop(worker_id, None)
            self._drop_delivered(worker_id)
            self.metrics.inc("fleet.shrunk")
            return stats

    def rebalance(self, weights: Dict[str, float]) -> List[ShardKey]:
        """Re-weight the ring under load skew; returns the moved keys.

        Only keys whose owner set actually changed move (the ring
        guarantees this); each new owner is caught up from the journal
        before the old primary forgets the shard, so a read routed to
        the new owner immediately after the rebalance sees the full
        stream.
        """
        with self._lock:
            self._check_open()
            self._reap_dead()
            before = {key: self._owners(key) for key in self.journal.keys()}
            for worker_id in sorted(weights):
                if worker_id not in self._handles:
                    raise FleetError(
                        f"cannot re-weight unknown fleet worker {worker_id!r}"
                    )
                self.ring.set_weight(worker_id, weights[worker_id])
            moved: List[ShardKey] = []
            for key in self.journal.keys():
                owners = self._owners(key)
                for owner in owners:
                    self._catch_up(owner, key)
                old_owners = before[key]
                if owners == old_owners:
                    continue
                moved.append(key)
                old_primary = old_owners[0]
                if old_primary not in owners and old_primary in self._handles:
                    # The shard left its old primary entirely; free the
                    # state there once the new owners are caught up.
                    try:
                        self._handles[old_primary].submit(
                            {
                                "kind": "forget",
                                "app": key[0],
                                "input": key[1],
                                "deadline_ms": self.config.worker_deadline_ms,
                            },
                            block=True,
                            timeout=self.config.request_timeout_s,
                        )
                    except (ServiceOverload, WorkerCrashed):
                        pass  # memory-freeing only; correctness unaffected
                    self._delivered.pop((old_primary, key), None)
            self.metrics.inc("fleet.rebalances")
            self.metrics.inc("fleet.rebalance_moved_keys", len(moved))
            self._record_decision(
                "rebalance",
                f"ring re-weighted; {len(moved)} key(s) moved",
                {"weights": self.ring.describe(), "moved": len(moved)},
            )
            return moved

    def autoscale_tick(self) -> AllocationDecision:
        """One monitor-loop step: signals -> decision -> applied action."""
        with self._lock:
            self._check_open()
            self._reap_dead()
            self._tick += 1
            signals = self._collect_signals()
            if self.config.autoscale:
                action, reason = self.autoscaler.decide(signals)
            else:
                action, reason = "hold", "autoscale disabled"
            if action == "grow":
                worker_id = self.add_worker()
                reason = f"{reason} -> spawned {worker_id}"
            elif action == "shrink":
                victim = self._least_loaded_worker()
                self.remove_worker(victim)
                reason = f"{reason} -> drained {victim}"
            decision = self._record_decision(action, reason, signals)
            return decision

    def _collect_signals(self) -> Dict:
        depths = {
            worker_id: handle.queue.qsize()
            for worker_id, handle in sorted(self._handles.items())
        }
        total_sheds = sum(
            handle.sheds for handle in self._handles.values()
        ) + int(self.metrics.counters.get("fleet.replica_sheds", 0))
        sheds_delta = total_sheds - self._last_sheds
        self._last_sheds = total_sheds
        build_latency = self._poll_build_latency()
        max_frac = (
            max(depths.values()) / self.config.queue_depth if depths else 0.0
        )
        return {
            "workers": len(self._handles),
            "queue_depths": depths,
            "max_queue_frac": max_frac,
            "sheds_delta": sheds_delta,
            "build_latency_s": build_latency,
            "crashed_workers": len(self.crashed_workers),
        }

    def _poll_build_latency(self) -> Optional[float]:
        """Mean plan-build seconds across workers, best-effort.

        A busy worker answers its stats probe late or not at all; the
        probe deadline is short on purpose — a missing latency sample
        must never stall the monitor loop.
        """
        totals = 0.0
        count = 0
        futures = []
        for worker_id in sorted(self._handles):
            try:
                futures.append(
                    self._handles[worker_id].submit({"kind": "stats"})
                )
            except (ServiceOverload, WorkerCrashed):
                continue
        for future in futures:
            try:
                stats = future.result(timeout=1.0)
            except (ReproError, concurrent.futures.TimeoutError):
                continue
            timer = stats.get("metrics", {}).get("timers", {}).get("service.build")
            if timer and timer.get("count"):
                totals += timer["total_s"]
                count += timer["count"]
        if count == 0:
            return None
        return totals / count

    def _least_loaded_worker(self) -> str:
        return min(
            sorted(self._handles),
            key=lambda worker_id: (
                self._handles[worker_id].queue.qsize(),
                self._handles[worker_id].requests,
            ),
        )

    def _record_decision(
        self, action: str, reason: str, signals: Dict
    ) -> AllocationDecision:
        decision = AllocationDecision(
            tick=self._tick,
            action=action,
            reason=reason,
            workers=self.ring.describe() if len(self.ring) else {},
            signals=signals,
        )
        self.decisions.append(decision)
        self.metrics.inc(f"fleet.decisions.{action}")
        if self._decisions_fh is not None:
            self._decisions_fh.write(json.dumps(decision.to_record()) + "\n")
            self._decisions_fh.flush()
        if self.telemetry is not None:
            # to_record() carries its own "event" key for the JSONL
            # file; the sink names the event positionally instead.
            record = {
                k: v for k, v in decision.to_record().items() if k != "event"
            }
            self.telemetry.emit("fleet_allocation", **record)
        return decision

    # ------------------------------------------------------------------
    # Chaos / recovery
    # ------------------------------------------------------------------
    def kill_worker(self, worker_id: str) -> None:
        """Chaos hook: SIGKILL one worker and reap it immediately."""
        with self._lock:
            handle = self._handles.get(worker_id)
            if handle is None:
                raise FleetError(f"unknown fleet worker {worker_id!r}")
            handle.process.kill()
            handle.process.join(10.0)
            handle.mark_dead()
            self._reap_dead()

    def _reap_dead(self) -> None:
        """Detect crashed workers; respawn replacements; drop stale state.

        Replacement workers start empty — their shards are rebuilt
        lazily by :meth:`_catch_up` from the journal on the next touch,
        so recovery cost is proportional to the shards actually read.
        """
        for worker_id in sorted(self._handles):
            handle = self._handles[worker_id]
            if handle.draining:
                continue
            if not handle.dead and handle.process.is_alive():
                continue
            handle.mark_dead()
            handle.join(timeout=5.0)
            self._handles.pop(worker_id)
            if worker_id in self.ring:
                self.ring.remove(worker_id)
            self._drop_delivered(worker_id)
            self.crashed_workers.append(worker_id)
            self.metrics.inc("fleet.worker_crashes")
            if self.telemetry is not None:
                self.telemetry.emit(
                    "fleet_worker_crash", worker=worker_id, pid=handle.pid
                )
            if not self._closed and len(self._handles) < self.config.workers:
                self._spawn_worker()
                self.metrics.inc("fleet.workers_replaced")

    def _drop_delivered(self, worker_id: str) -> None:
        for delivered_key in sorted(self._delivered):
            if delivered_key[0] == worker_id:
                del self._delivered[delivered_key]

    def _catch_up(self, worker_id: str, key: ShardKey) -> None:
        """Replay *key*'s missing journal suffix into *worker_id*.

        Blocking puts: replay traffic must not be shed (it is the
        durability path), and FIFO pipe order guarantees the replayed
        prefix folds before any request submitted afterwards.
        """
        have = self._delivered.get((worker_id, key), 0)
        total = self.journal.count(key)
        if have >= total:
            return
        handle = self._handles[worker_id]
        start = have
        self.metrics.inc("fleet.replays")
        for batch in self.journal.replay(key, start=have):
            handle.submit(
                self._message(batch),
                block=True,
                timeout=self.config.request_timeout_s,
            )
            have += 1
            self._delivered[(worker_id, key)] = have
        self.metrics.inc("fleet.replayed_batches", have - start)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _owners(self, key: ShardKey) -> Tuple[str, ...]:
        return self.ring.owners(key, self.config.replicas)

    def _message(self, batch: SampleBatch) -> Dict:
        return {
            "kind": "ingest",
            "app": batch.app_name,
            "input": batch.input_label,
            "samples": batch.samples,
            "seq": batch.seq,
            "deadline_ms": self.config.worker_deadline_ms,
        }

    def _check_open(self, allow_draining: bool = False) -> None:
        if not self._started:
            raise FleetError("fleet not started; call start() first")
        if self._closed and not allow_draining:
            raise ServiceClosed("fleet is draining; no new requests accepted")

    def _result(self, future: concurrent.futures.Future, kind: str):
        try:
            return future.result(timeout=self.config.request_timeout_s)
        except concurrent.futures.TimeoutError:
            raise DeadlineExceeded(
                f"fleet {kind} request missed its "
                f"{self.config.request_timeout_s}s router deadline"
            ) from None
