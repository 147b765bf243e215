"""Drivers that replay profiled sample streams against the plan service.

A driver stands in for a fleet of profiled hosts.  For each app of a
:class:`Scenario` it generates a trace with the normal walker and
collects the offline miss profile *while recording the exact arrival
order of every sample* (:func:`ground_truth`).  It then streams those
samples into a running service in batches and finally requests the
served plan.

Because the online path reuses :func:`repro.core.twig.build_plan`
verbatim and the ingest fold is lossless at :data:`LOSSLESS` settings,
the served plan must be site-for-site identical to the offline
``collect_profile`` → ``build_plan`` result on the same samples; every
run checks exactly that (:meth:`Shard.served`).

Two streaming loops share that ground truth and that check, because
their ordering contracts differ:

* :func:`run_service` drives one in-process :class:`PlanService` with
  one ingest client per shard and one ack in flight per shard, so
  per-shard order holds by construction.  Best-effort load clients
  can be added to stress shedding, deadlines and the drain.
* :func:`run_fleet` drives the sharded multi-process fleet through its
  router with a bounded cross-shard pipeline of acks, resends shed
  batches, and fires a :class:`Chaos` schedule (worker kill, skewed
  rebalance, autoscaler ticks) at batch milestones.

``python -m repro.service`` is the command line over both (and over
the drift run in :mod:`repro.drift.bench`).
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..bench.clock import now as wall_now
from ..config import SimConfig
from ..core.twig import build_plan
from ..errors import (
    DeadlineExceeded,
    ReproError,
    ServiceClosed,
    ServiceOverload,
    WorkerCrashed,
)
from ..profiling.collector import collect_profile
from ..profiling.profile import MissProfile, MissSample
from ..telemetry.events import TelemetrySink
from ..trace.events import Trace
from ..trace.walker import generate_trace
from ..workloads.apps import app_names
from ..workloads.cfg import Workload
from ..workloads.rng import make_rng
from .build import PlanVersion, plans_equivalent
from .fleet import FleetConfig, FleetRouter
from .server import PlanService, ServiceConfig, default_workload_resolver


def collect_sample_stream(
    workload: Workload,
    trace: Trace,
    config: Optional[SimConfig] = None,
    sample_rate: int = 1,
) -> Tuple[MissProfile, Tuple[MissSample, ...]]:
    """Offline profile plus the arrival-ordered sample stream behind it."""
    profile = collect_profile(workload, trace, config, sample_rate=sample_rate)
    return profile, tuple(profile.samples)


# Service settings under which every sample folds, so served plans must
# equal offline build_plan: every branch is hot and the reservoir holds
# any stream a scenario produces.
LOSSLESS = ServiceConfig(
    deadline_ms=5_000, reservoir_capacity=1 << 20, debounce_s=0.0
)


# ----------------------------------------------------------------------
# Scenario and ground truth
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """What a driver streams: which apps, how much trace, what batches."""

    apps: Tuple[str, ...] = ("wordpress", "drupal")
    trace_instructions: int = 20_000
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.apps:
            raise ReproError("a scenario needs at least one app")
        unknown = sorted(set(self.apps) - set(app_names()))
        if unknown:
            raise ReproError(
                f"unknown app(s) {unknown}; choose from {sorted(app_names())}"
            )
        if self.trace_instructions <= 0:
            raise ReproError(
                "trace_instructions must be positive, "
                f"got {self.trace_instructions}"
            )
        if self.batch_size <= 0:
            raise ReproError(f"batch_size must be positive, got {self.batch_size}")


@dataclass
class ShardResult:
    """One app's shard, streamed and then served."""

    app: str
    input_label: str
    stream_samples: int
    batches: int
    ingest_retries: int
    served_version: int
    served_sites: int
    parity: bool  # served plan == offline build_plan on the same samples


@dataclass(frozen=True)
class Shard:
    """One app's offline ground truth: input label, profile, sample stream."""

    app: str
    label: str
    profile: MissProfile
    stream: Tuple[MissSample, ...]

    def batches(self, batch_size: int) -> List[Tuple[MissSample, ...]]:
        return [
            self.stream[i : i + batch_size]
            for i in range(0, len(self.stream), batch_size)
        ]

    def served(
        self,
        version: PlanVersion,
        batches: int,
        retries: int,
        resolver: Callable[[str], Workload],
        sim_cfg: SimConfig,
    ) -> ShardResult:
        """Check the served plan against offline ``build_plan``."""
        offline = build_plan(resolver(self.app), self.profile, sim_cfg)
        return ShardResult(
            app=self.app,
            input_label=self.label,
            stream_samples=len(self.stream),
            batches=batches,
            ingest_retries=retries,
            served_version=version.version,
            served_sites=version.plan.total_prefetch_entries(),
            parity=plans_equivalent(version.plan, offline),
        )


def ground_truth(
    scenario: Scenario,
    resolver: Callable[[str], Workload],
    sim_cfg: SimConfig,
) -> Dict[str, Shard]:
    """Profile every app of *scenario* offline, keeping arrival order."""
    shards: Dict[str, Shard] = {}
    for app in scenario.apps:
        workload = resolver(app)
        trace = generate_trace(
            workload,
            workload.spec.make_input(0),
            max_instructions=scenario.trace_instructions,
        )
        profile, stream = collect_sample_stream(workload, trace, sim_cfg)
        shards[app] = Shard(app, trace.label, profile, stream)
    return shards


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass
class StreamReport:
    """Per-shard results of one run."""

    apps: Dict[str, ShardResult] = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def parity_ok(self) -> bool:
        return all(r.parity for r in self.apps.values())


@dataclass
class ServiceReport(StreamReport):
    """What one in-process run produced."""

    stats: Dict = field(default_factory=dict)  # PlanService.stop() report
    load_ok: int = 0
    load_shed: int = 0
    load_expired: int = 0
    load_closed: int = 0
    drained_clean: bool = False

    @property
    def sheds(self) -> int:
        return int(self.stats.get("counters", {}).get("service.shed", 0))

    @property
    def deadline_expired(self) -> int:
        return int(
            self.stats.get("counters", {}).get("service.deadline_expired", 0)
        )

    @property
    def max_queue_depth(self) -> int:
        return int(self.stats.get("max_queue_depth", 0))


@dataclass
class FleetReport(StreamReport):
    """What one sharded-fleet run produced."""

    fleet: Dict = field(default_factory=dict)  # FleetRouter.stop() report
    decisions: List[Dict] = field(default_factory=list)
    moved_keys: int = 0
    crash_acks: int = 0  # journaled ingests acked by WorkerCrashed (replayed)
    ingest_retries: int = 0  # shed submissions resent (exactly-once safe)

    @property
    def router_counters(self) -> Dict:
        return self.fleet.get("router", {}).get("counters", {})

    @property
    def sheds(self) -> int:
        return int(self.router_counters.get("fleet.replica_sheds", 0)) + sum(
            int(v)
            for k, v in self.router_counters.items()
            if k.startswith("fleet.worker.") and k.endswith(".shed")
        )

    @property
    def crashed_workers(self) -> List[str]:
        return list(self.fleet.get("router", {}).get("crashed_workers", []))

    @property
    def drained_clean(self) -> bool:
        return (
            not self.fleet.get("abandoned_shards")
            and not self.fleet.get("dirty_shards")
        )


def _shard_lines(title: str, report: StreamReport) -> List[str]:
    lines = [title, "=" * len(title), "", "per-shard (streamed -> served)"]
    for app in sorted(report.apps):
        r = report.apps[app]
        lines.append(
            f"  {app:16s} samples={r.stream_samples:<6d} "
            f"batches={r.batches:<4d} retries={r.ingest_retries:<4d} "
            f"plan v{r.served_version} sites={r.served_sites:<5d} "
            f"parity={'OK' if r.parity else 'MISMATCH'}"
        )
    lines.append("")
    return lines


# ----------------------------------------------------------------------
# In-process driver
# ----------------------------------------------------------------------
async def _ingest_client(
    service: PlanService, shard: Shard, batch_size: int, seed: int
) -> Tuple[int, int]:
    """Stream one shard's samples in order; retry shed/expired batches.

    Retrying is exactly-once safe: a shed batch never entered the
    queue, and an expired one is skipped by the worker (its future is
    already cancelled), so a retry cannot double-fold samples.
    """
    rng = make_rng("service-bench-client", shard.app, shard.label, seed)
    batches = 0
    retries = 0
    for chunk in shard.batches(batch_size):
        while True:
            try:
                await service.ingest(shard.app, shard.label, chunk, seq=batches)
                batches += 1
                break
            except (ServiceOverload, DeadlineExceeded):
                retries += 1
                await asyncio.sleep(0.002 * (0.5 + rng.random()))
    return batches, retries


# Stats requests each best-effort load client sends.
LOAD_REQUESTS = 8


async def _load_client(
    service: PlanService, report: ServiceReport, deadline_ms: int
) -> None:
    """Best-effort stats spam; every outcome is tallied, none retried."""
    for _ in range(LOAD_REQUESTS):
        try:
            await service.stats(deadline_ms=deadline_ms)
            report.load_ok += 1
        except ServiceOverload:
            report.load_shed += 1
        except DeadlineExceeded:
            report.load_expired += 1
        except ServiceClosed:
            report.load_closed += 1


async def _drive_service(
    scenario: Scenario,
    config: ServiceConfig,
    telemetry: Optional[TelemetrySink],
    load_clients: int,
    load_deadline_ms: int,
) -> ServiceReport:
    resolver = default_workload_resolver()
    sim_cfg = SimConfig()
    shards = ground_truth(scenario, resolver, sim_cfg)
    service = PlanService(
        workload_for=resolver,
        config=config,
        sim_config=sim_cfg,
        telemetry=telemetry,
    )

    report = ServiceReport()
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    await service.start()

    ingest_tasks = {
        app: loop.create_task(
            _ingest_client(service, shard, scenario.batch_size, scenario.seed)
        )
        for app, shard in shards.items()
    }
    load_tasks = [
        loop.create_task(_load_client(service, report, load_deadline_ms))
        for _ in range(load_clients)
    ]

    await asyncio.gather(*ingest_tasks.values())

    # Every shard is fully ingested; ask for the plans a fleet host
    # would fetch.  A generous deadline keeps overload runs honest:
    # the final plan must still be servable after the storm.
    for app, shard in shards.items():
        batches, retries = ingest_tasks[app].result()
        version = await service.get_plan(app, shard.label, deadline_ms=60_000)
        report.apps[app] = shard.served(
            version, batches, retries, resolver, sim_cfg
        )

    await asyncio.gather(*load_tasks)
    report.stats = await service.stop()
    report.drained_clean = (
        report.stats["queue_depth"] == 0
        and not any(s["dirty"] for s in report.stats["shards"].values())
    )
    report.wall_s = loop.time() - t0
    return report


def run_service(
    scenario: Scenario,
    config: ServiceConfig = LOSSLESS,
    telemetry: Optional[TelemetrySink] = None,
    load_clients: int = 0,
    load_deadline_ms: int = 250,
) -> ServiceReport:
    """Stream *scenario* through one in-process service (own loop).

    ``load_clients`` best-effort clients each send ``LOAD_REQUESTS``
    stats requests with a ``load_deadline_ms`` budget alongside the
    ingest, to provoke shedding and deadline expiry.
    """
    return asyncio.run(
        _drive_service(
            scenario, config, telemetry, load_clients, load_deadline_ms
        )
    )


def format_service_report(report: ServiceReport) -> str:
    lines = _shard_lines("service bench report", report)
    out = lines.append
    counters = report.stats.get("counters", {})
    out(
        f"service: {int(counters.get('service.requests', 0))} requests, "
        f"{report.sheds} shed, {report.deadline_expired} deadline-expired, "
        f"{int(counters.get('service.builds', 0))} builds "
        f"(+{int(counters.get('service.build_retries', 0))} retries), "
        f"churn={int(counters.get('service.plan_churn', 0))}"
    )
    out(
        f"queue: depth bound {report.max_queue_depth}, "
        f"drain {'clean' if report.drained_clean else 'DIRTY'}"
    )
    if report.load_ok or report.load_shed or report.load_expired or report.load_closed:
        out(
            f"load clients: {report.load_ok} ok, {report.load_shed} shed, "
            f"{report.load_expired} expired, {report.load_closed} after-close"
        )
    out(f"wall: {report.wall_s:.2f}s")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Sharded multi-process fleet driver (repro.service.fleet)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Chaos:
    """Faults a fleet run injects, and how hard it pushes the router.

    The triggers count journaled batches, so a run is reproducible
    batch-for-batch regardless of wall time.
    """

    kill_after: Optional[int] = None  # SIGKILL a worker after N batches
    rebalance_after: Optional[int] = None  # skew ring weights after N batches
    autoscale_every: int = 0  # autoscale_tick() every N batches; 0 = never
    # Outstanding ingest acks kept in flight across shards; raising it
    # past the router's queue_depth provokes shedding.
    pipeline_depth: int = 8

    def __post_init__(self) -> None:
        if self.pipeline_depth < 1:
            raise ReproError(
                f"pipeline_depth must be >= 1, got {self.pipeline_depth}"
            )
        if self.autoscale_every < 0:
            raise ReproError(
                f"autoscale_every must be >= 0, got {self.autoscale_every}"
            )


# The ``fleet --chaos`` preset: one kill, one skewed rebalance and an
# autoscaler tick every 6 batches, with a pipeline deeper than the
# preset's router queue (4) so the router sheds.
CHAOS = Chaos(kill_after=5, rebalance_after=9, autoscale_every=6, pipeline_depth=12)

# Fleet workers fold losslessly like LOSSLESS, but with a long
# debounce: shards build once at drain/get_plan instead of churning
# mid-stream, since parity is about the end state.
_FLEET_WORKER = ServiceConfig(
    deadline_ms=60_000, reservoir_capacity=1 << 20, debounce_s=30.0
)


def _reap_acks(outstanding, report: FleetReport, limit: int) -> None:
    """Wait out ingest acks beyond *limit* outstanding.

    A :class:`~repro.errors.WorkerCrashed` ack is *not* a lost batch:
    the router journaled it at acceptance and will replay it into the
    replacement worker, so the driver only tallies it.
    """
    while len(outstanding) > limit:
        future = outstanding.popleft()
        try:
            future.result(timeout=120.0)
        except WorkerCrashed:
            report.crash_acks += 1


def run_fleet(
    scenario: Scenario,
    config: FleetConfig,
    chaos: Chaos = Chaos(),
    telemetry_path: Optional[str] = None,
    journal_path: Optional[str] = None,
    decisions_path: Optional[str] = None,
) -> FleetReport:
    """Drive a sharded multi-process fleet and check end-state parity.

    The scenario's streams are interleaved round-robin across shards
    through the router while *chaos* fires at batch milestones.  After
    a fleet-wide drain, each served plan is compared site-for-site
    against the offline ``collect_profile → build_plan`` result on the
    same samples.
    """
    resolver = default_workload_resolver()
    sim_cfg = SimConfig()
    report = FleetReport()
    t0 = wall_now()
    shards = ground_truth(scenario, resolver, sim_cfg)

    router = FleetRouter(
        config=config,
        service_config=replace(_FLEET_WORKER, seed=config.seed),
        sim_config=sim_cfg,
        telemetry_path=telemetry_path,
        journal_path=journal_path,
        decisions_path=decisions_path,
    )
    router.start()

    # Round-robin interleave so chaos events land mid-stream for every
    # shard, not after some shard already finished.
    queues = {
        app: deque(enumerate(shard.batches(scenario.batch_size)))
        for app, shard in shards.items()
    }
    batches: Dict[str, int] = {app: 0 for app in shards}
    retries: Dict[str, int] = {app: 0 for app in shards}
    outstanding: deque = deque()
    journaled = 0
    killed = False
    rebalanced = False
    while any(queues.values()):
        for app, shard in shards.items():
            if not queues[app]:
                continue
            seq, chunk = queues[app].popleft()
            while True:
                try:
                    outstanding.append(
                        router.ingest_async(app, shard.label, chunk, seq=seq)
                    )
                    batches[app] += 1
                    break
                except ServiceOverload:
                    # Shed before journaling: safe (and required) to
                    # resend.  Draining acks gives the worker air; the
                    # sleep yields to the IO pumps when none are out.
                    retries[app] += 1
                    report.ingest_retries += 1
                    _reap_acks(outstanding, report, limit=0)
                    time.sleep(0.001)
            journaled += 1
            _reap_acks(outstanding, report, limit=chaos.pipeline_depth)
            if (
                chaos.kill_after is not None
                and not killed
                and journaled >= chaos.kill_after
            ):
                router.kill_worker(router.ring.workers()[0])
                killed = True
            if (
                chaos.rebalance_after is not None
                and not rebalanced
                and journaled >= chaos.rebalance_after
            ):
                _reap_acks(outstanding, report, limit=0)
                members = router.ring.workers()
                weights = {
                    worker: (2.0 if i == 0 else 0.5)
                    for i, worker in enumerate(members)
                }
                report.moved_keys = len(router.rebalance(weights))
                rebalanced = True
            if chaos.autoscale_every and journaled % chaos.autoscale_every == 0:
                router.autoscale_tick()
    _reap_acks(outstanding, report, limit=0)

    for app, shard in shards.items():
        version = router.get_plan(app, shard.label)
        report.apps[app] = shard.served(
            version, batches[app], retries[app], resolver, sim_cfg
        )

    report.fleet = router.stop()
    report.decisions = [d.to_record() for d in router.decisions]
    report.wall_s = wall_now() - t0
    return report


def format_fleet_report(report: FleetReport) -> str:
    lines = _shard_lines("sharded fleet bench report", report)
    out = lines.append
    counters = report.router_counters
    router = report.fleet.get("router", {})
    journal = router.get("journal", {})
    out(
        f"fleet: {int(counters.get('fleet.batches', 0))} batches journaled "
        f"({journal.get('samples', 0)} samples, {journal.get('keys', 0)} shards), "
        f"{report.sheds} shed (+{report.ingest_retries} resent), "
        f"{int(counters.get('fleet.replayed_batches', 0))} replayed"
    )
    out(
        f"workers: {int(counters.get('fleet.workers_spawned', 0))} spawned, "
        f"{len(report.crashed_workers)} crashed "
        f"({int(counters.get('fleet.workers_replaced', 0))} replaced), "
        f"{int(counters.get('fleet.grown', 0))} grown, "
        f"{int(counters.get('fleet.shrunk', 0))} shrunk"
    )
    out(
        f"ring: {router.get('ring', {})} "
        f"({int(counters.get('fleet.rebalances', 0))} rebalance(s), "
        f"{report.moved_keys} key(s) moved)"
    )
    if report.decisions:
        actions = Counter(decision["action"] for decision in report.decisions)
        summary = ", ".join(f"{n} {action}" for action, n in sorted(actions.items()))
        out(f"autoscaler: {len(report.decisions)} decision(s): {summary}")
    out(
        f"drain: {'clean' if report.drained_clean else 'DIRTY'} "
        f"(abandoned={report.fleet.get('abandoned_shards', [])})"
    )
    out(f"wall: {report.wall_s:.2f}s")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# In-process crash (drift run, recovery tests)
# ----------------------------------------------------------------------
async def _abandon_service(service: PlanService) -> None:
    """Simulate a crash: cancel workers mid-air, skip the drain.

    In-memory state is lost exactly as a process kill would lose it;
    only what the WAL flushed and the snapshots persisted survives —
    which is what a restore must recover from.
    """
    tasks = list(service._workers) + list(service._debounce.values())
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    service._workers = []
    service._debounce.clear()
    if service.journal is not None:
        service.journal.close()
