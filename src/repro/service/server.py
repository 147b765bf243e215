"""Async plan server: bounded queues, deadlines, shedding, drain.

:class:`PlanService` is the in-process front end of the continuous
profiling loop.  Profiler clients ``ingest()`` sample batches; fleet
hosts ``get_plan()`` the latest verified plan for their shard.  The
transport is an :class:`asyncio.Queue` rather than a socket — the
subsystem under study is the serving *discipline*, which is identical
either way:

* **bounded queue / load shedding** — the request queue holds at most
  ``queue_depth`` entries; an arrival that finds it full is shed
  immediately (:class:`~repro.errors.ServiceOverload`), so memory and
  tail latency stay bounded no matter the offered load;
* **deadlines** — every request carries a budget covering queue wait
  plus processing; a request that misses it fails with
  :class:`~repro.errors.DeadlineExceeded`, and if it is still queued
  when a worker reaches it, the worker skips the corpse;
* **retry with jittered backoff** — transient build failures
  (:class:`~repro.errors.TransientBuildError`) are retried up to
  ``build_retries`` times with seeded exponential-backoff jitter;
* **graceful drain** — ``stop()`` stops intake, lets workers finish
  the queued backlog, then force-builds any still-dirty shards so the
  last samples of a session are never stranded unpublished.

Ingest processing is deliberately synchronous between dequeue and
acknowledge (no ``await`` points), so batches for one shard fold in
exactly queue order — the ordering half of online/offline parity.

Everything observable flows through a
:class:`~repro.telemetry.metrics.MetricsRegistry` (queue depth and
high-water gauges, shed/deadline/build/churn counters, per-kind
request timers) and, when a :class:`~repro.telemetry.events.TelemetrySink`
is attached, JSONL spans for ingest/build/check plus a final drain
event.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..drift.canary import CanarySettings

from ..config import ConfigError, SimConfig
from ..errors import (
    DeadlineExceeded,
    ReproError,
    ServiceClosed,
    ServiceError,
    ServiceOverload,
    TransientBuildError,
)
from ..profiling.profile import MissSample
from ..telemetry.metrics import MetricsRegistry
from ..workloads.apps import get_app
from ..workloads.cfg import Workload, build_workload
from ..workloads.rng import make_rng
from .build import IncrementalPlanBuilder, PlanVersion
from .ingest import FeedbackBatch, IngestBuffer, SampleBatch, ShardKey
from .journal import IngestJournal
from .persist import SnapshotStore, apply_snapshot, capture_snapshot

_SENTINEL = object()


def default_workload_resolver(seed: int = 0) -> Callable[[str], Workload]:
    """App name -> built workload, memoized (same seed as the runner)."""
    cache: Dict[str, Workload] = {}

    def resolve(app: str) -> Workload:
        workload = cache.get(app)
        if workload is None:
            workload = build_workload(get_app(app), seed=seed)
            cache[app] = workload
        return workload

    return resolve


@dataclass(frozen=True)
class ServiceConfig:
    """Serving-discipline knobs."""

    # Requests beyond this queue bound are shed (ServiceOverload).
    queue_depth: int = 64
    # Per-request budget covering queue wait plus processing.
    deadline_ms: int = 2000
    # Retained samples per (app, input) shard; at or above the stream
    # length the fold is lossless and served plans match offline.
    reservoir_capacity: int = 8192
    # Hot-branch pre-filter threshold; 1 admits every sample (lossless).
    hot_threshold: int = 1
    workers: int = 2
    # Trailing debounce before a background rebuild of a dirty shard;
    # every new batch re-arms the timer.  0 rebuilds eagerly.
    debounce_s: float = 0.05
    build_retries: int = 2
    backoff_base_s: float = 0.01
    # Bench-only: artificial processing latency for non-ingest requests,
    # used to provoke queue pressure deterministically.
    synthetic_delay_s: float = 0.0
    seed: int = 0
    # Durability: WAL mirror path and fsync policy, snapshot directory
    # and cadence (in journaled batches).  Unset paths mean no
    # durability.
    journal_path: Optional[str] = None
    fsync: bool = False
    snapshot_dir: Optional[str] = None
    snapshot_every: int = 16

    def __post_init__(self) -> None:
        if self.queue_depth <= 0:
            raise ConfigError(f"queue_depth must be positive, got {self.queue_depth}")
        if self.deadline_ms <= 0:
            raise ConfigError(f"deadline_ms must be positive, got {self.deadline_ms}")
        if self.reservoir_capacity <= 0:
            raise ConfigError(
                f"reservoir_capacity must be positive, got {self.reservoir_capacity}"
            )
        if self.hot_threshold < 1:
            raise ConfigError(f"hot_threshold must be >= 1, got {self.hot_threshold}")
        if self.workers <= 0:
            raise ConfigError(f"workers must be positive, got {self.workers}")
        if self.debounce_s < 0:
            raise ConfigError(f"debounce_s must be >= 0, got {self.debounce_s}")
        if self.build_retries < 0:
            raise ConfigError(f"build_retries must be >= 0, got {self.build_retries}")
        if self.backoff_base_s < 0:
            raise ConfigError(f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.synthetic_delay_s < 0:
            raise ConfigError(
                f"synthetic_delay_s must be >= 0, got {self.synthetic_delay_s}"
            )
        if self.snapshot_every <= 0:
            raise ConfigError(
                f"snapshot_every must be positive, got {self.snapshot_every}"
            )


@dataclass
class _Request:
    kind: str
    payload: object
    future: asyncio.Future
    enqueued_at: float


class PlanService:
    """The asyncio plan server (in-process transport)."""

    def __init__(
        self,
        workload_for: Optional[Callable[[str], Workload]] = None,
        config: Optional[ServiceConfig] = None,
        sim_config: Optional[SimConfig] = None,
        check_plans: bool = True,
        telemetry=None,
        canary: Optional["CanarySettings"] = None,
    ):
        # Imported lazily: repro.drift.canary imports this package's
        # build/ingest modules, so a top-level import here would cycle.
        from ..drift.canary import CanaryController

        self.config = config if config is not None else ServiceConfig()
        # Drift canary controller: the serving-truth oracle for active
        # plan versions.  With canarying disabled (the default) it only
        # tracks baseline effectiveness; the feedback path feeds it
        # either way.
        self.canary = CanaryController(canary)
        self.telemetry = telemetry
        # With a sink attached its registry is the service's registry,
        # so drain summaries and external reports see one namespace.
        self.metrics: MetricsRegistry = (
            telemetry.registry if telemetry is not None else MetricsRegistry()
        )
        self.buffer = IngestBuffer(
            reservoir_capacity=self.config.reservoir_capacity,
            hot_threshold=self.config.hot_threshold,
            seed=self.config.seed,
        )
        self.builder = IncrementalPlanBuilder(
            workload_for if workload_for is not None else default_workload_resolver(),
            config=sim_config,
            check_plans=check_plans,
            telemetry=telemetry,
        )
        self._backoff_rng = make_rng("service-backoff", self.config.seed)
        self._queue: Optional[asyncio.Queue] = None
        self._workers: List[asyncio.Task] = []
        self._debounce: Dict[ShardKey, asyncio.Task] = {}
        self._build_locks: Dict[ShardKey, asyncio.Lock] = {}
        self._last_build_error: Dict[ShardKey, str] = {}
        self._started = False
        self._closed = False
        self.max_queue_depth = 0
        # Durability state: the WAL journal and snapshot store open at
        # restore()/start(), whichever comes first.
        self.journal: Optional[IngestJournal] = None
        self._snapshots: Optional[SnapshotStore] = None
        self._snapshot_seq = 0
        self._batches_since_snapshot = 0
        self.restore_report: Optional[Dict] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "PlanService":
        if self._started:
            raise ServiceError("service already started")
        # One-time journal/snapshot open, before any request is
        # accepted: nothing else runs on the loop yet, and deferring
        # it would let the first ingest race an unopened WAL.
        self._open_durability()  # staticcheck: disable=A101 (startup-only open, loop idle)
        self._queue = asyncio.Queue(maxsize=self.config.queue_depth)
        self._workers = [
            asyncio.get_running_loop().create_task(self._worker())
            for _ in range(self.config.workers)
        ]
        self._started = True
        self._closed = False
        return self

    def _open_durability(self) -> None:
        """Open the WAL + snapshot store if configured and not yet open.

        Opening the journal in resume mode is load-bearing even without
        an explicit ``restore()``: re-opening an existing mirror in
        plain append mode would restart per-shard indices at zero and
        corrupt it for every future reader.
        """
        if self.journal is None and self.config.journal_path:
            self.journal = IngestJournal(
                self.config.journal_path, fsync=self.config.fsync, resume=True
            )
        if self._snapshots is None and self.config.snapshot_dir:
            self._snapshots = SnapshotStore(self.config.snapshot_dir)

    def restore(
        self,
        snapshot_dir: Optional[str] = None,
        journal_path: Optional[str] = None,
    ) -> Dict:
        """Recover pre-crash state: latest snapshot + journal-suffix replay.

        Must run before ``start()``.  Loads the newest valid snapshot
        (if a snapshot directory is configured and holds one), installs
        its shard state and published plan lineage, then replays every
        journaled batch past the snapshot's per-shard coverage directly
        into the ingest buffer — *without* re-journaling, since the WAL
        already holds those records.  The fold being deterministic,
        this converges to the exact state of an uninterrupted run.

        Returns a recovery report (snapshot seq, shards/plans restored,
        batches replayed, torn journal records skipped).
        """
        if self._started:
            raise ServiceError("restore() must run before start()")
        sdir = snapshot_dir if snapshot_dir is not None else self.config.snapshot_dir
        jpath = (
            journal_path if journal_path is not None else self.config.journal_path
        )
        report: Dict = {
            "snapshot_loaded": False,
            "snapshot_seq": 0,
            "shards_restored": 0,
            "plans_restored": 0,
            "batches_replayed": 0,
            "epochs_replayed": 0,
            "torn_records": 0,
        }
        journal_counts: Dict[ShardKey, int] = {}
        if sdir:
            self._snapshots = SnapshotStore(sdir)
            data = self._snapshots.latest()
            if data is not None:
                shards, plans, journal_counts = apply_snapshot(self, data)
                self._snapshot_seq = int(data["seq"])
                report["snapshot_loaded"] = True
                report["snapshot_seq"] = self._snapshot_seq
                report["shards_restored"] = shards
                report["plans_restored"] = plans
        if jpath:
            self.journal = IngestJournal(
                jpath, fsync=self.config.fsync, resume=True
            )
            report["torn_records"] = self.journal.torn_records
            # Epoch resets are journaled events positioned in the batch
            # sequence; replay must re-apply any reset the snapshot
            # predates at its exact position, or the fold would
            # resurrect pre-deploy samples the live run had dropped.
            pending_resets: Dict[ShardKey, List] = {}
            for ev in self.journal.events:
                if ev.get("event") != "epoch":
                    continue
                ev_key = (ev["app"], ev["input"])
                pending_resets.setdefault(ev_key, []).append(
                    (int(ev["at_index"]), int(ev["epoch"]))
                )
            replayed = 0
            resets_replayed = 0
            for key in self.journal.keys():
                start = journal_counts.get(key, 0)
                restored = self.buffer.get(key)
                shard_epoch = restored.epoch if restored is not None else 0
                resets = sorted(
                    at
                    for at, ep in pending_resets.get(key, [])
                    if ep > shard_epoch
                )
                pos = start
                for batch in self.journal.replay(key, start):
                    while resets and resets[0] <= pos:
                        self.buffer.shard(key).reset_epoch()
                        resets.pop(0)
                        resets_replayed += 1
                    self.buffer.ingest(batch)
                    pos += 1
                    replayed += 1
                while resets:
                    self.buffer.shard(key).reset_epoch()
                    resets.pop(0)
                    resets_replayed += 1
            report["batches_replayed"] = replayed
            report["epochs_replayed"] = resets_replayed
            self._batches_since_snapshot = replayed
        self.metrics.inc("service.restores")
        self.metrics.inc("service.restored_batches", report["batches_replayed"])
        if self.telemetry is not None:
            self.telemetry.emit("service_restore", report=report)
        self.restore_report = report
        return report

    async def stop(self) -> Dict:
        """Graceful drain: finish the backlog, publish dirty shards.

        Returns the final stats snapshot.  Worker crashes (non-repro
        bugs) surface here rather than hanging the drain.
        """
        if not self._started:
            raise ServiceError("service not started")
        self._closed = True
        # Sentinels queue *behind* the remaining backlog, so each
        # worker drains FIFO until it meets one.
        for _ in self._workers:
            await self._queue.put(_SENTINEL)
        await asyncio.gather(*self._workers)
        self._workers = []
        # Kill pending debounce timers; their shards get a final
        # synchronous build below, so nothing is lost.
        for task in list(self._debounce.values()):
            task.cancel()
        for task in list(self._debounce.values()):
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._debounce.clear()
        for key in self.buffer.dirty_keys():
            shard = self.buffer.get(key)
            try:
                version = self.builder.build(shard)
            except ReproError as exc:
                self.metrics.inc("service.drain_build_failures")
                # Drain runs after the workers are joined and the
                # debounce timers are dead: no build can race this.
                self._last_build_error[key] = str(exc)  # staticcheck: disable=A103 (drain: workers joined, no concurrent builds)
            else:
                # Publish-time snapshot must stay atomic with the
                # publish; at drain there are no requests to stall.
                self._note_published(version)  # staticcheck: disable=A101 (drain-time publish, no requests in flight)
                self.metrics.inc("service.drain_builds")
        self._started = False
        # Final snapshot: drain-time builds are part of the lineage, so
        # a restart from here replays nothing and serves the same plans.
        if self._snapshots is not None and self.buffer.keys():
            self._write_snapshot()  # staticcheck: disable=A101 (drain-time snapshot, no requests in flight)
        if self.journal is not None:
            self.journal.close()
            self.journal = None
        self.metrics.set_gauge("service.queue_depth", 0)
        snapshot = self.stats_snapshot()
        if self.telemetry is not None:
            self.telemetry.emit("service_drain", stats=snapshot)
        return snapshot

    async def __aenter__(self) -> "PlanService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if self._started:
            await self.stop()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    async def ingest(
        self,
        app_name: str,
        input_label: str,
        samples,
        seq: int = 0,
        deadline_ms: Optional[int] = None,
    ):
        """Submit one sample batch; returns the shard's IngestAck."""
        batch = SampleBatch(
            app_name=app_name,
            input_label=input_label,
            samples=tuple(
                s if isinstance(s, MissSample) else MissSample(*s) for s in samples
            ),
            seq=seq,
        )
        return await self.request("ingest", batch, deadline_ms=deadline_ms)

    async def feedback(
        self,
        app_name: str,
        input_label: str,
        samples,
        stale_pcs=(),
        seq: int = 0,
        deadline_ms: Optional[int] = None,
    ) -> Dict:
        """Submit post-publish miss feedback for effectiveness scoring.

        Feedback never reaches the plan builder: it is scored against
        the shard's live plan (and, during a canary, split between the
        baseline and candidate arms).  Returns a summary dict with the
        number of samples scored and any canary verdicts rendered.
        """
        batch = FeedbackBatch(
            app_name=app_name,
            input_label=input_label,
            samples=tuple(
                s if isinstance(s, MissSample) else MissSample(*s) for s in samples
            ),
            stale_pcs=tuple(sorted(stale_pcs)),
            seq=seq,
        )
        return await self.request("feedback", batch, deadline_ms=deadline_ms)

    async def new_epoch(
        self, app_name: str, input_label: str, deadline_ms: Optional[int] = None
    ) -> int:
        """Start a fresh profile epoch for a shard (rolling deploy).

        A deploy changes the binary's layout, so retained samples can no
        longer be attributed to the code the fleet now runs; the shard's
        sketch/reservoir restart empty while the plan lineage (and any
        canary in flight) survives the boundary.  The reset is journaled
        at its exact position in the batch sequence, so crash recovery
        re-applies it during replay.  Returns the new epoch number.
        """
        return await self.request(
            "epoch", (app_name, input_label), deadline_ms=deadline_ms
        )

    async def get_plan(
        self, app_name: str, input_label: str, deadline_ms: Optional[int] = None
    ) -> PlanVersion:
        """The latest verified plan for a shard (building if dirty)."""
        return await self.request(
            "plan", (app_name, input_label), deadline_ms=deadline_ms
        )

    async def stats(self, deadline_ms: Optional[int] = None) -> Dict:
        """Operational snapshot, served through the request queue."""
        return await self.request("stats", None, deadline_ms=deadline_ms)

    async def forget(
        self, app_name: str, input_label: str, deadline_ms: Optional[int] = None
    ) -> bool:
        """Drop one shard's state and plan (fleet rebalance handoff).

        Returns whether the shard existed.  Served through the request
        queue so it cannot race an ingest fold for the same shard.
        """
        return await self.request(
            "forget", (app_name, input_label), deadline_ms=deadline_ms
        )

    # ------------------------------------------------------------------
    async def request(self, kind: str, payload, deadline_ms: Optional[int] = None):
        """Enqueue one request and await its response under a deadline."""
        if not self._started:
            raise ServiceError("service not started; call start() first")
        if self._closed:
            raise ServiceClosed("service is draining; no new requests accepted")
        loop = asyncio.get_running_loop()
        req = _Request(kind, payload, loop.create_future(), loop.time())
        try:
            self._queue.put_nowait(req)
        except asyncio.QueueFull:
            self.metrics.inc("service.shed")
            raise ServiceOverload(
                f"request queue full (depth {self.config.queue_depth}); "
                f"{kind} request shed"
            ) from None
        self.metrics.inc("service.requests")
        self.metrics.inc(f"service.requests.{kind}")
        self._note_queue_depth()
        budget_ms = self.config.deadline_ms if deadline_ms is None else deadline_ms
        try:
            result = await asyncio.wait_for(req.future, budget_ms / 1000.0)
        except asyncio.TimeoutError:
            self.metrics.inc("service.deadline_expired")
            raise DeadlineExceeded(
                f"{kind} request missed its {budget_ms}ms deadline"
            ) from None
        self.metrics.add_time(f"service.request.{kind}", loop.time() - req.enqueued_at)
        return result

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        queue = self._queue
        while True:
            req = await queue.get()
            if req is _SENTINEL:
                queue.task_done()
                return
            self._note_queue_depth()
            if req.future.done():
                # Deadline expired (and cancelled the future) while the
                # request sat in the queue; don't spend work on a corpse.
                self.metrics.inc("service.expired_in_queue")
                queue.task_done()
                continue
            try:
                if self.config.synthetic_delay_s > 0 and req.kind != "ingest":
                    await asyncio.sleep(self.config.synthetic_delay_s)
                result = await self._process(req)
            except ReproError as exc:
                if not req.future.done():
                    req.future.set_exception(exc)
                else:
                    # The client's deadline already fired; nobody is
                    # waiting for this failure, but it still counts.
                    del exc
                    self.metrics.inc("service.failed_after_expiry")
                queue.task_done()
            else:
                if not req.future.done():
                    req.future.set_result(result)
                queue.task_done()

    async def _process(self, req: _Request):
        if req.kind == "ingest":
            # Audited blocking path: the WAL write (flush + optional
            # fsync) must stay synchronous between dequeue and ack so
            # fold order == queue order and an acked batch is durable.
            # The fsync cost *is* the durability budget (DESIGN §14);
            # moving it to an executor would reorder folds.
            return self._process_ingest(req.payload)  # staticcheck: disable=A101 (WAL-before-fold must stay synchronous; fold order == queue order)
        if req.kind == "feedback":
            # Synchronous for the same reason as ingest: the canary's
            # arm assignment is keyed on the per-shard observation
            # counter, so scoring order must equal queue order for the
            # traffic split to be replay-deterministic.
            return self._process_feedback(req.payload)  # staticcheck: disable=A101 (score order == queue order keeps the canary split deterministic)
        if req.kind == "plan":
            app_name, input_label = req.payload
            return await self._serve_plan((app_name, input_label))
        if req.kind == "stats":
            return self.stats_snapshot()
        if req.kind == "forget":
            return self._process_forget(req.payload)
        if req.kind == "epoch":
            # Synchronous (like ingest/forget) so the reset lands at a
            # well-defined position in the shard's fold order.
            return self._process_epoch(req.payload)  # staticcheck: disable=A101 (reset position in fold order must equal queue order)
        raise ServiceError(f"unknown request kind {req.kind!r}")

    def _process_epoch(self, key: ShardKey) -> int:
        """Reset one shard's profile epoch; synchronous so the reset's
        position in the fold order equals its queue position."""
        shard = self.buffer.get(key)
        if shard is None:
            raise ServiceError(
                f"no samples ingested for shard {key}; nothing to reset"
            )
        if self.journal is not None:
            # WAL discipline mirrors ingest: the reset is durable, with
            # its exact position in the batch sequence, before it is
            # applied — recovery replays batches *and* resets in order.
            self.journal.record_event(
                "epoch",
                app=key[0],
                input=key[1],
                at_index=self.journal.count(key),
                epoch=shard.epoch + 1,
            )
        epoch = shard.reset_epoch()
        self.metrics.inc("service.epoch_resets")
        if self.telemetry is not None:
            self.telemetry.emit(
                "epoch_reset", app=key[0], input=key[1], epoch=epoch
            )
        # The post-reset (empty) shard state must be restorable even if
        # no batch arrives before a crash: snapshot now, like a publish.
        if self._snapshots is not None:
            self._write_snapshot()
        return epoch

    def _process_forget(self, key: ShardKey) -> bool:
        """Drop one shard; synchronous (like ingest) so it serializes
        with folds for the same shard in queue order."""
        pending = self._debounce.pop(key, None)
        if pending is not None and not pending.done():
            pending.cancel()
        self._build_locks.pop(key, None)
        # The shard's lock object is being discarded with the shard;
        # forget serializes with builds for the key via queue order.
        self._last_build_error.pop(key, None)  # staticcheck: disable=A103 (queue-order serialization; the owning lock is discarded here)
        dropped_plan = self.builder.discard(key)
        dropped_state = self.buffer.discard(key)
        self.canary.forget(key)
        if dropped_state or dropped_plan:
            self.metrics.inc("service.shards_forgotten")
        return dropped_state

    def _process_feedback(self, batch: FeedbackBatch) -> Dict:
        """Score one feedback batch; synchronous so the canary's
        per-shard observation counter advances in queue order."""
        stale = set(batch.stale_pcs) or None
        verdicts = []
        for sample in batch.samples:
            verdict = self.canary.observe(batch.key, sample, stale_pcs=stale)
            if verdict is None:
                continue
            verdicts.append(verdict)
            self.metrics.inc("service.canary_verdicts")
            self.metrics.inc(f"service.canary_{verdict.decision}")
            if self.journal is not None:
                # The verdict is lineage: journal it with the same
                # durability as the batches that produced it.
                self.journal.record_event(
                    "canary",
                    app=batch.app_name,
                    input=batch.input_label,
                    decision=verdict.decision,
                    candidate_version=verdict.candidate_version,
                    active_version=verdict.active_version,
                )
            if self.telemetry is not None:
                self.telemetry.emit(
                    "canary_verdict",
                    app=batch.app_name,
                    input=batch.input_label,
                    decision=verdict.decision,
                    candidate_version=verdict.candidate_version,
                    active_version=verdict.active_version,
                    baseline_score=verdict.baseline_score,
                    candidate_score=verdict.candidate_score,
                )
            # A verdict changes which version is active: extend the
            # publish-snapshot invariant so a crash right after the
            # decision still restores the post-verdict lineage.
            if self._snapshots is not None:
                self._write_snapshot()
        self.metrics.inc("service.feedback_batches")
        self.metrics.inc("service.feedback_samples", len(batch.samples))
        state = self.canary.states.get(batch.key)
        return {
            "key": batch.key,
            "scored": len(batch.samples),
            "stage": state.stage if state is not None else None,
            "verdicts": [
                {
                    "decision": v.decision,
                    "candidate_version": v.candidate_version,
                    "active_version": v.active_version,
                    "baseline_score": v.baseline_score,
                    "candidate_score": v.candidate_score,
                }
                for v in verdicts
            ],
        }

    def _process_ingest(self, batch: SampleBatch):
        """Fold one batch in; synchronous so shard order == queue order."""
        if self.journal is not None:
            # WAL discipline: the batch is durable before it is folded,
            # so an acknowledged batch is always replayable.
            self.journal.record(batch)
            self.metrics.inc("service.journaled_batches")
        tel = self.telemetry
        if tel is not None:
            with tel.span(
                "service_ingest", app=batch.app_name, input=batch.input_label
            ):
                ack = self.buffer.ingest(batch)
        else:
            ack = self.buffer.ingest(batch)
        reg = self.metrics
        reg.inc("service.ingest_batches")
        reg.inc("service.samples_received", ack.received)
        reg.inc("service.samples_admitted", ack.admitted)
        reg.inc("service.samples_filtered", ack.filtered)
        reg.inc("service.samples_dropped", ack.dropped)
        self._arm_debounce(ack.key)
        self._maybe_snapshot()
        return ack

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def _maybe_snapshot(self) -> None:
        """Count one folded batch toward the periodic snapshot cadence."""
        if self._snapshots is None:
            return
        self._batches_since_snapshot += 1
        if self._batches_since_snapshot >= self.config.snapshot_every:
            self._write_snapshot()

    def _write_snapshot(self) -> None:
        """Persist the current fold state + plan lineage atomically."""
        if self._snapshots is None:
            return
        self._snapshot_seq += 1
        if self.journal is not None:
            counts = {key: self.journal.count(key) for key in self.journal.keys()}
        else:
            # No WAL: replay positions are moot, but record the batch
            # counts anyway so the snapshot stays self-describing.
            counts = {
                key: self.buffer.get(key).counters.batches
                for key in self.buffer.keys()
            }
        data = capture_snapshot(self, self._snapshot_seq, counts)
        tel = self.telemetry
        if tel is not None:
            with tel.span("service_snapshot", seq=self._snapshot_seq):
                self._snapshots.write(data)
        else:
            self._snapshots.write(data)
        self.metrics.inc("service.snapshots")
        self._batches_since_snapshot = 0

    async def _serve_plan(self, key: ShardKey) -> PlanVersion:
        shard = self.buffer.get(key)
        if shard is None:
            raise ServiceError(
                f"no samples ingested for shard {key}; nothing to plan"
            )
        # Read-your-writes: a plan request on a dirty shard rebuilds
        # now instead of waiting out the debounce.
        version = await self._build_shard(key)
        # Serving truth is the canary controller's: during a canary the
        # fleet keeps executing the baseline while the candidate is on
        # trial, and after a rollback the active version is *older*
        # than the builder's monotonic latest.
        active = self.canary.active(key)
        return active if active is not None else version

    # ------------------------------------------------------------------
    # Builds
    # ------------------------------------------------------------------
    def _arm_debounce(self, key: ShardKey) -> None:
        """(Re-)schedule the trailing-debounce background rebuild."""
        pending = self._debounce.get(key)
        if pending is not None and not pending.done():
            pending.cancel()
        loop = asyncio.get_running_loop()
        self._debounce[key] = loop.create_task(self._debounced_build(key))

    async def _debounced_build(self, key: ShardKey) -> None:
        if self.config.debounce_s > 0:
            await asyncio.sleep(self.config.debounce_s)
        try:
            await self._build_shard(key)
        except ReproError:
            # Background rebuilds have no caller to fail; _build_shard
            # already recorded the rejection under the shard lock, so
            # the last good version stays live and stats stay honest.
            self.metrics.inc("service.background_build_failures")

    async def _build_shard(self, key: ShardKey) -> PlanVersion:
        lock = self._build_locks.get(key)
        if lock is None:
            lock = self._build_locks[key] = asyncio.Lock()
        async with lock:
            try:
                shard = self.buffer.get(key)
                if shard is None:
                    raise ServiceError(f"unknown shard {key}")
                latest = self.builder.latest(key)
                if latest is not None and not shard.dirty:
                    return latest
                loop = asyncio.get_running_loop()
                t0 = loop.time()
                attempt = 0
                while True:
                    fut = loop.run_in_executor(None, self.builder.build, shard)
                    try:
                        version = await asyncio.shield(fut)
                        break
                    except asyncio.CancelledError:
                        # A cancelled caller (re-armed debounce, drain)
                        # must not abandon the executor build: the thread
                        # keeps running, and releasing the shard lock here
                        # would let a second build race it on the same
                        # shard state.  Wait it out, record any publish,
                        # then propagate the cancellation.
                        try:
                            version = await asyncio.shield(fut)
                        except (ReproError, asyncio.CancelledError):
                            pass
                        else:
                            self._note_published(version)  # staticcheck: disable=A101 (publish-time snapshot is atomic with the publish)
                            self._last_build_error.pop(key, None)
                        raise
                    except TransientBuildError:
                        attempt += 1
                        self.metrics.inc("service.build_retries")
                        if attempt > self.config.build_retries:
                            raise
                        # Seeded jitter in [0.5, 1.5) of the exponential step.
                        delay = (
                            self.config.backoff_base_s
                            * (2 ** (attempt - 1))
                            * (0.5 + self._backoff_rng.random())
                        )
                        await asyncio.sleep(delay)
                self.metrics.add_time("service.build", loop.time() - t0)
                self._note_published(version)  # staticcheck: disable=A101 (publish-time snapshot is atomic with the publish)
                self._last_build_error.pop(key, None)
                return version
            except ReproError as exc:
                # Build failures are lock-owned shard state: record
                # them here, under the lock, so a concurrent build for
                # the same key can never interleave with the write.
                self._last_build_error[key] = str(exc)
                raise

    def _note_published(self, version: PlanVersion) -> None:
        reg = self.metrics
        reg.inc("service.builds")
        reg.inc("service.plans_published")
        reg.inc("service.plan_churn", version.diff.churn)
        reg.set_gauge(
            f"service.plan_version.{version.key[0]}/{version.key[1]}",
            version.version,
        )
        # Route the fresh version through the canary state machine
        # *before* the snapshot below, so the snapshot captures the
        # post-transition stage (activated/staged/restaged).
        transition = self.canary.note_published(version)
        reg.inc(f"service.canary_{transition}")
        # Every publish is a snapshot point: version numbers and diffs
        # are derived from the previously published version, so lineage
        # only provably survives a crash if no published version can
        # exist outside a snapshot.  Publishes are rare next to batches
        # (debounce + read-your-writes coalescing), so this does not
        # meaningfully raise the snapshot rate.
        if self._snapshots is not None:
            self._write_snapshot()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def canary_states(self) -> List:
        """All per-shard canary states (snapshot capture hook)."""
        return list(self.canary.states.values())

    def _note_queue_depth(self) -> None:
        depth = self._queue.qsize() if self._queue is not None else 0
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        self.metrics.set_gauge("service.queue_depth", depth)
        self.metrics.set_gauge("service.max_queue_depth", self.max_queue_depth)

    def stats_snapshot(self) -> Dict:
        """Synchronous stats view (also served via ``stats()``)."""
        shards = {}
        for key in self.buffer.keys():
            shard = self.buffer.get(key)
            latest = self.builder.latest(key)
            active = self.canary.active(key)
            canary_state = self.canary.states.get(key)
            shards["/".join(key)] = {
                "active_version": (
                    active.version if active is not None else 0
                ),
                "canary_stage": (
                    canary_state.stage if canary_state is not None else None
                ),
                "generation": shard.generation,
                "built_generation": shard.built_generation,
                "dirty": shard.dirty,
                "received": shard.counters.received,
                "admitted": shard.counters.admitted,
                "filtered": shard.counters.filtered,
                "dropped": shard.counters.dropped,
                "retained": len(shard.reservoir),
                "overflowed": shard.reservoir.overflowed,
                "plan_version": latest.version if latest is not None else 0,
                "plan_sites": (
                    latest.plan.total_prefetch_entries() if latest is not None else 0
                ),
                "last_build_error": self._last_build_error.get(key),
            }
        return {
            "closed": self._closed,
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
            "max_queue_depth": self.max_queue_depth,
            "counters": dict(self.metrics.counters),
            "canary": self.canary.stats(),
            "durability": {
                "journal": self.config.journal_path,
                "journaled_batches": (
                    self.journal.total_batches if self.journal is not None else 0
                ),
                "snapshot_dir": self.config.snapshot_dir,
                "snapshot_seq": self._snapshot_seq,
            },
            "shards": shards,
        }
