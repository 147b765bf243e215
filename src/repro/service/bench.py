"""Synthetic fleet driver: replay sample streams against the service.

The bench stands in for a fleet of profiled hosts.  For each app it
generates a trace with the normal walker, collects the offline miss
profile *while recording the exact arrival order of every sample*,
then streams those samples into a running :class:`PlanService` in
batches — one ingest client per shard, so per-shard order is
preserved — and finally requests the served plan.

Because the online path reuses :func:`repro.core.twig.build_plan`
verbatim and the ingest fold is lossless at default settings, the
served plan must be site-for-site identical to the offline
``collect_profile`` → ``build_plan`` result on the same samples; the
driver asserts exactly that (``check_parity``).  In overload mode it
instead stresses the serving discipline: many best-effort clients, a
tiny queue, and synthetic per-request latency provoke shedding and
deadline expiry while the driver verifies the queue stayed bounded and
the drain came back clean.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bench.clock import now as wall_now
from ..config import SimConfig, apps_from_env, int_from_env
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
from .build import plans_equivalent
from .fleet import FleetConfig as FleetPoolConfig
from .fleet import FleetRouter
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


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetConfig:
    """One bench scenario."""

    apps: Tuple[str, ...] = ("wordpress", "drupal")
    trace_instructions: int = 20_000
    sample_rate: int = 1
    batch_size: int = 64
    # Serving discipline under test.
    queue_depth: int = 64
    deadline_ms: int = 5_000
    reservoir: int = 1 << 20  # lossless by default -> parity holds
    hot_threshold: int = 1
    workers: int = 2
    debounce_s: float = 0.0
    synthetic_delay_s: float = 0.0
    # Best-effort load generators (stats/plan spam), for overload runs.
    load_clients: int = 0
    requests_per_client: int = 8
    load_deadline_ms: int = 250
    seed: int = 0
    check_parity: bool = True
    check_plans: bool = True

    def __post_init__(self) -> None:
        if not self.apps:
            raise ReproError("fleet bench needs at least one app")
        unknown = sorted(set(self.apps) - set(app_names()))
        if unknown:
            raise ReproError(
                f"fleet bench names unknown app(s) {unknown}; "
                f"choose from {sorted(app_names())}"
            )
        if self.batch_size <= 0:
            raise ReproError(f"batch_size must be positive, got {self.batch_size}")


@dataclass
class AppBenchResult:
    app: str
    input_label: str
    stream_samples: int
    batches: int
    ingest_retries: int
    served_version: int
    served_sites: int
    parity: Optional[bool]  # None when parity checking was off


@dataclass
class BenchReport:
    apps: Dict[str, AppBenchResult] = field(default_factory=dict)
    stats: Dict = field(default_factory=dict)
    load_ok: int = 0
    load_shed: int = 0
    load_expired: int = 0
    load_closed: int = 0
    drained_clean: bool = False
    wall_s: float = 0.0

    @property
    def parity_ok(self) -> Optional[bool]:
        checked = [r.parity for r in self.apps.values() if r.parity is not None]
        if not checked:
            return None
        return all(checked)

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


# ----------------------------------------------------------------------
async def _ingest_client(
    service: PlanService,
    app: str,
    label: str,
    stream,
    batch_size: int,
    seed: int,
) -> Tuple[int, int]:
    """Stream one shard's samples in order; retry shed/expired batches.

    Retrying is exactly-once safe: a shed batch never entered the
    queue, and an expired one is skipped by the worker (its future is
    already cancelled), so a retry cannot double-fold samples.
    """
    rng = make_rng("service-bench-client", app, label, seed)
    batches = 0
    retries = 0
    for start in range(0, len(stream), batch_size):
        chunk = stream[start : start + batch_size]
        while True:
            try:
                await service.ingest(app, label, chunk, seq=batches)
                batches += 1
                break
            except (ServiceOverload, DeadlineExceeded):
                retries += 1
                await asyncio.sleep(0.002 * (0.5 + rng.random()))
    return batches, retries


async def _load_client(
    service: PlanService, report: BenchReport, requests: int, deadline_ms: int
) -> None:
    """Best-effort stats spam; every outcome is tallied, none retried."""
    for _ in range(requests):
        try:
            await service.stats(deadline_ms=deadline_ms)
            report.load_ok += 1
        except ServiceOverload:
            report.load_shed += 1
        except DeadlineExceeded:
            report.load_expired += 1
        except ServiceClosed:
            report.load_closed += 1


async def _drive(cfg: FleetConfig, telemetry: Optional[TelemetrySink]) -> BenchReport:
    resolver = default_workload_resolver()
    sim_cfg = SimConfig()

    # Offline ground truth first: profile + arrival-ordered stream.
    shards = {}
    for app in cfg.apps:
        workload = resolver(app)
        inp = workload.spec.make_input(0)
        trace = generate_trace(
            workload, inp, max_instructions=cfg.trace_instructions
        )
        profile, stream = collect_sample_stream(
            workload, trace, sim_cfg, sample_rate=cfg.sample_rate
        )
        shards[app] = (trace.label, profile, stream)

    service = PlanService(
        workload_for=resolver,
        config=ServiceConfig(
            queue_depth=cfg.queue_depth,
            deadline_ms=cfg.deadline_ms,
            reservoir_capacity=cfg.reservoir,
            hot_threshold=cfg.hot_threshold,
            workers=cfg.workers,
            debounce_s=cfg.debounce_s,
            synthetic_delay_s=cfg.synthetic_delay_s,
            seed=cfg.seed,
        ),
        sim_config=sim_cfg,
        check_plans=cfg.check_plans,
        telemetry=telemetry,
    )

    report = BenchReport()
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    await service.start()

    ingest_tasks = {
        app: loop.create_task(
            _ingest_client(service, app, label, stream, cfg.batch_size, cfg.seed)
        )
        for app, (label, _profile, stream) in shards.items()
    }
    load_tasks = [
        loop.create_task(
            _load_client(
                service, report, cfg.requests_per_client, cfg.load_deadline_ms
            )
        )
        for _ in range(cfg.load_clients)
    ]

    await asyncio.gather(*ingest_tasks.values())

    # Every shard is fully ingested; ask for the plans a fleet host
    # would fetch.  A generous deadline keeps overload runs honest:
    # the final plan must still be servable after the storm.
    for app, (label, profile, stream) in shards.items():
        batches, retries = ingest_tasks[app].result()
        version = await service.get_plan(app, label, deadline_ms=60_000)
        parity: Optional[bool] = None
        if cfg.check_parity:
            offline = build_plan(resolver(app), profile, sim_cfg)
            parity = plans_equivalent(version.plan, offline)
        report.apps[app] = AppBenchResult(
            app=app,
            input_label=label,
            stream_samples=len(stream),
            batches=batches,
            ingest_retries=retries,
            served_version=version.version,
            served_sites=version.plan.total_prefetch_entries(),
            parity=parity,
        )

    await asyncio.gather(*load_tasks)
    report.stats = await service.stop()
    report.drained_clean = (
        report.stats["queue_depth"] == 0
        and not any(s["dirty"] for s in report.stats["shards"].values())
    )
    report.wall_s = loop.time() - t0
    return report


def run_fleet(
    cfg: FleetConfig, telemetry: Optional[TelemetrySink] = None
) -> BenchReport:
    """Run one bench scenario to completion (creates its own loop)."""
    return asyncio.run(_drive(cfg, telemetry))


# ----------------------------------------------------------------------
def format_bench_report(report: BenchReport) -> str:
    lines: List[str] = []
    out = lines.append
    out("service bench report")
    out("====================")
    out("")
    out("per-shard (streamed -> served)")
    for app in sorted(report.apps):
        r = report.apps[app]
        parity = "n/a" if r.parity is None else ("OK" if r.parity else "MISMATCH")
        out(
            f"  {app:16s} samples={r.stream_samples:<6d} "
            f"batches={r.batches:<4d} retries={r.ingest_retries:<4d} "
            f"plan v{r.served_version} sites={r.served_sites:<5d} "
            f"parity={parity}"
        )
    counters = report.stats.get("counters", {})
    out("")
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
class ShardedFleetConfig:
    """One sharded-fleet bench scenario (router + worker processes).

    The chaos knobs (``kill_after`` / ``rebalance_after`` /
    ``autoscale_every``) trigger on the count of journaled batches, so
    a scenario is reproducible batch-for-batch regardless of wall time.
    """

    apps: Tuple[str, ...] = ("wordpress", "drupal")
    trace_instructions: int = 12_000
    sample_rate: int = 1
    batch_size: int = 64
    workers: int = 2
    replicas: int = 1
    max_workers: int = 8
    queue_depth: int = 64
    # Outstanding ingest acks the driver keeps in flight per step;
    # raising it past queue_depth provokes shedding.
    pipeline_depth: int = 8
    autoscale: bool = False
    autoscale_every: int = 0  # autoscale_tick() every N batches; 0 = never
    kill_after: Optional[int] = None  # SIGKILL a worker after N batches
    rebalance_after: Optional[int] = None  # skew ring weights after N batches
    seed: int = 0
    check_parity: bool = True
    check_plans: bool = True

    def __post_init__(self) -> None:
        if not self.apps:
            raise ReproError("sharded fleet bench needs at least one app")
        unknown = sorted(set(self.apps) - set(app_names()))
        if unknown:
            raise ReproError(
                f"sharded fleet bench names unknown app(s) {unknown}; "
                f"choose from {sorted(app_names())}"
            )
        if self.batch_size <= 0:
            raise ReproError(f"batch_size must be positive, got {self.batch_size}")
        if self.pipeline_depth < 1:
            raise ReproError(
                f"pipeline_depth must be >= 1, got {self.pipeline_depth}"
            )
        if self.autoscale_every < 0:
            raise ReproError(
                f"autoscale_every must be >= 0, got {self.autoscale_every}"
            )


@dataclass
class FleetBenchReport:
    """What one sharded-fleet run produced."""

    apps: Dict[str, AppBenchResult] = field(default_factory=dict)
    fleet: Dict = field(default_factory=dict)  # FleetRouter.stop() report
    decisions: List[Dict] = field(default_factory=list)
    moved_keys: int = 0
    crash_acks: int = 0  # journaled ingests acked by WorkerCrashed (replayed)
    ingest_retries: int = 0  # shed submissions resent (exactly-once safe)
    wall_s: float = 0.0

    @property
    def router_counters(self) -> Dict:
        return self.fleet.get("router", {}).get("counters", {})

    @property
    def parity_ok(self) -> Optional[bool]:
        checked = [r.parity for r in self.apps.values() if r.parity is not None]
        if not checked:
            return None
        return all(checked)

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


def _reap_acks(outstanding, report: FleetBenchReport, limit: int) -> None:
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


def run_fleet_sharded(
    cfg: ShardedFleetConfig,
    telemetry_path: Optional[str] = None,
    journal_path: Optional[str] = None,
    decisions_path: Optional[str] = None,
) -> FleetBenchReport:
    """Drive a sharded multi-process fleet and assert end-state parity.

    Ground truth first (offline profile + arrival-ordered stream per
    app), then the same streams are interleaved round-robin across
    shards through the router while the configured chaos (worker kill,
    skewed rebalance, autoscaler ticks) fires at batch milestones.
    After a fleet-wide drain, each served plan is compared
    site-for-site against the offline ``collect_profile → build_plan``
    result on the same samples.
    """
    resolver = default_workload_resolver()
    sim_cfg = SimConfig()
    report = FleetBenchReport()
    t0 = wall_now()

    shards: Dict[str, Tuple[str, MissProfile, Tuple[MissSample, ...]]] = {}
    for app in cfg.apps:
        workload = resolver(app)
        inp = workload.spec.make_input(0)
        trace = generate_trace(
            workload, inp, max_instructions=cfg.trace_instructions
        )
        profile, stream = collect_sample_stream(
            workload, trace, sim_cfg, sample_rate=cfg.sample_rate
        )
        shards[app] = (trace.label, profile, stream)

    router = FleetRouter(
        config=FleetPoolConfig(
            workers=cfg.workers,
            replicas=cfg.replicas,
            autoscale=cfg.autoscale,
            max_workers=max(cfg.max_workers, cfg.workers),
            queue_depth=cfg.queue_depth,
            seed=cfg.seed,
        ),
        # Long debounce: shards build once at drain/get_plan instead of
        # churning mid-stream; parity is about the end state.
        service_config=ServiceConfig(
            queue_depth=64,
            deadline_ms=60_000,
            reservoir_capacity=1 << 20,
            hot_threshold=1,
            debounce_s=30.0,
            seed=cfg.seed,
        ),
        sim_config=sim_cfg,
        check_plans=cfg.check_plans,
        telemetry_path=telemetry_path,
        journal_path=journal_path,
        decisions_path=decisions_path,
    )
    router.start()

    # Round-robin interleave so chaos events land mid-stream for every
    # shard, not after some shard already finished.
    queues = {
        app: deque(
            (stream[i : i + cfg.batch_size], seq)
            for seq, i in enumerate(range(0, len(stream), cfg.batch_size))
        )
        for app, (_label, _profile, stream) in shards.items()
    }
    batches: Dict[str, int] = {app: 0 for app in cfg.apps}
    retries: Dict[str, int] = {app: 0 for app in cfg.apps}
    outstanding: deque = deque()
    journaled = 0
    killed = False
    rebalanced = False
    while any(queues.values()):
        for app in cfg.apps:
            if not queues[app]:
                continue
            label = shards[app][0]
            chunk, seq = queues[app].popleft()
            while True:
                try:
                    outstanding.append(
                        router.ingest_async(app, label, chunk, seq=seq)
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
            _reap_acks(outstanding, report, limit=cfg.pipeline_depth)
            if (
                cfg.kill_after is not None
                and not killed
                and journaled >= cfg.kill_after
            ):
                router.kill_worker(router.ring.workers()[0])
                killed = True
            if (
                cfg.rebalance_after is not None
                and not rebalanced
                and journaled >= cfg.rebalance_after
            ):
                _reap_acks(outstanding, report, limit=0)
                members = router.ring.workers()
                weights = {
                    worker: (2.0 if i == 0 else 0.5)
                    for i, worker in enumerate(members)
                }
                report.moved_keys = len(router.rebalance(weights))
                rebalanced = True
            if cfg.autoscale_every and journaled % cfg.autoscale_every == 0:
                router.autoscale_tick()
    _reap_acks(outstanding, report, limit=0)

    for app in cfg.apps:
        label, profile, stream = shards[app]
        version = router.get_plan(app, label)
        parity: Optional[bool] = None
        if cfg.check_parity:
            offline = build_plan(resolver(app), profile, sim_cfg)
            parity = plans_equivalent(version.plan, offline)
        report.apps[app] = AppBenchResult(
            app=app,
            input_label=label,
            stream_samples=len(stream),
            batches=batches[app],
            ingest_retries=retries[app],
            served_version=version.version,
            served_sites=version.plan.total_prefetch_entries(),
            parity=parity,
        )

    report.fleet = router.stop()
    report.decisions = [d.to_record() for d in router.decisions]
    report.wall_s = wall_now() - t0
    return report


def format_fleet_report(report: FleetBenchReport) -> str:
    lines: List[str] = []
    out = lines.append
    out("sharded fleet bench report")
    out("==========================")
    out("")
    out("per-shard (streamed -> served)")
    for app in sorted(report.apps):
        r = report.apps[app]
        parity = "n/a" if r.parity is None else ("OK" if r.parity else "MISMATCH")
        out(
            f"  {app:16s} samples={r.stream_samples:<6d} "
            f"batches={r.batches:<4d} retries={r.ingest_retries:<4d} "
            f"plan v{r.served_version} sites={r.served_sites:<5d} "
            f"parity={parity}"
        )
    counters = report.router_counters
    router = report.fleet.get("router", {})
    journal = router.get("journal", {})
    out("")
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
        actions: Dict[str, int] = {}
        for decision in report.decisions:
            actions[decision["action"]] = actions.get(decision["action"], 0) + 1
        summary = ", ".join(
            f"{count} {action}" for action, count in sorted(actions.items())
        )
        out(f"autoscaler: {len(report.decisions)} decision(s): {summary}")
    out(
        f"drain: {'clean' if report.drained_clean else 'DIRTY'} "
        f"(abandoned={report.fleet.get('abandoned_shards', [])})"
    )
    out(f"wall: {report.wall_s:.2f}s")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# In-process crash (drift bench, recovery tests)
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


# ----------------------------------------------------------------------
# CLI entry points (python -m repro.experiments serve / service-bench,
# tools/service_bench.py)
# ----------------------------------------------------------------------
def _add_common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--apps",
        default=None,
        help="comma-separated app subset (default: $REPRO_APPS or wordpress,drupal)",
    )
    parser.add_argument(
        "--trace-instructions",
        type=int,
        default=None,
        help="trace length per app (default: $REPRO_TRACE_INSTRUCTIONS or 20000)",
    )
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--queue-depth", type=int, default=64)
    parser.add_argument("--deadline-ms", type=int, default=5000)
    parser.add_argument("--reservoir", type=int, default=1 << 20)
    parser.add_argument("--hot-threshold", type=int, default=1)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--no-check-plans",
        action="store_true",
        help="skip the staticcheck publish gate",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="append service telemetry JSONL events to PATH",
    )


def _resolve_apps(raw: Optional[str]) -> Tuple[str, ...]:
    if raw:
        return tuple(a.strip() for a in raw.split(",") if a.strip())
    env = apps_from_env()
    if env is not None:
        return env
    return ("wordpress", "drupal")


def _run_fleet_logged(cfg: FleetConfig, telemetry_path: Optional[str]) -> BenchReport:
    """:func:`run_fleet`, logging to *telemetry_path* when given.

    The log is closed however the run ends; only a finished run
    appends the summary event.
    """
    sink = TelemetrySink(telemetry_path) if telemetry_path else None
    try:
        report = run_fleet(cfg, telemetry=sink)
        if sink is not None:
            sink.emit_summary()
        return report
    finally:
        if sink is not None:
            sink.close()


def service_bench_main(argv=None) -> int:
    """``service-bench``: the configurable fleet stress driver."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments service-bench",
        description="Replay synthetic LBR sample streams against the plan "
        "service and report shedding/deadline/drain behaviour.",
    )
    _add_common_args(parser)
    parser.add_argument(
        "--clients",
        type=int,
        default=0,
        help="best-effort load clients spamming stats requests",
    )
    parser.add_argument(
        "--requests", type=int, default=8, help="requests per load client"
    )
    parser.add_argument("--load-deadline-ms", type=int, default=250)
    parser.add_argument(
        "--synthetic-delay-ms",
        type=int,
        default=0,
        help="artificial per-request latency (non-ingest), to provoke backlog",
    )
    parser.add_argument(
        "--overload",
        action="store_true",
        help="preset: tiny queue, 1 worker, synthetic latency, many clients",
    )
    parser.add_argument(
        "--no-check-parity",
        action="store_true",
        help="skip the online==offline plan parity assertion",
    )
    parser.add_argument(
        "--expect-sheds",
        action="store_true",
        help="exit nonzero unless the run shed at least one request",
    )
    args = parser.parse_args(argv)

    queue_depth = args.queue_depth
    workers = args.workers
    clients = args.clients
    delay_s = args.synthetic_delay_ms / 1000.0
    if args.overload:
        queue_depth = min(queue_depth, 4)
        workers = 1
        clients = max(clients, 6 * queue_depth)
        delay_s = max(delay_s, 0.02)

    try:
        cfg = FleetConfig(
            apps=_resolve_apps(args.apps),
            trace_instructions=(
                args.trace_instructions
                if args.trace_instructions is not None
                else int_from_env("REPRO_TRACE_INSTRUCTIONS", 20_000)
            ),
            batch_size=args.batch_size,
            queue_depth=queue_depth,
            deadline_ms=args.deadline_ms,
            reservoir=args.reservoir,
            hot_threshold=args.hot_threshold,
            workers=workers,
            synthetic_delay_s=delay_s,
            load_clients=clients,
            requests_per_client=args.requests,
            load_deadline_ms=args.load_deadline_ms,
            seed=args.seed,
            check_parity=not args.no_check_parity,
            check_plans=not args.no_check_plans,
        )
        report = _run_fleet_logged(cfg, args.telemetry)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_bench_report(report))
    if cfg.check_parity and report.parity_ok is False:
        print("error: served plans diverged from the offline pipeline",
              file=sys.stderr)
        return 1
    if not report.drained_clean:
        print("error: service did not drain cleanly", file=sys.stderr)
        return 1
    if args.expect_sheds and report.sheds == 0:
        print("error: --expect-sheds but no request was shed", file=sys.stderr)
        return 1
    return 0


def serve_main(argv=None) -> int:
    """``serve``: a one-shot demo session of the plan service.

    Streams every requested app's samples through a running service
    with gentle settings, prints the served plans, and drains.  With
    ``--fleet``, ``--workers N`` means N worker *processes* behind the
    sharded router instead of N async tasks in one process.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments serve",
        description="Run a demo plan-service session: stream profiles in, "
        "serve verified plans back, drain gracefully.",
    )
    _add_common_args(parser)
    parser.add_argument(
        "--fleet",
        action="store_true",
        help="serve from a sharded multi-process fleet "
        "(--workers = worker processes)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="hot-shard replicas per key (fleet mode only)",
    )
    args = parser.parse_args(argv)
    if args.fleet:
        try:
            cfg = ShardedFleetConfig(
                apps=_resolve_apps(args.apps),
                trace_instructions=(
                    args.trace_instructions
                    if args.trace_instructions is not None
                    else int_from_env("REPRO_TRACE_INSTRUCTIONS", 20_000)
                ),
                batch_size=args.batch_size,
                workers=args.workers,
                replicas=args.replicas,
                queue_depth=args.queue_depth,
                seed=args.seed,
                check_parity=True,
                check_plans=not args.no_check_plans,
            )
            report = run_fleet_sharded(cfg, telemetry_path=args.telemetry)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(format_fleet_report(report))
        return 0 if report.parity_ok is not False and report.drained_clean else 1
    try:
        cfg = FleetConfig(
            apps=_resolve_apps(args.apps),
            trace_instructions=(
                args.trace_instructions
                if args.trace_instructions is not None
                else int_from_env("REPRO_TRACE_INSTRUCTIONS", 20_000)
            ),
            batch_size=args.batch_size,
            queue_depth=args.queue_depth,
            deadline_ms=args.deadline_ms,
            reservoir=args.reservoir,
            hot_threshold=args.hot_threshold,
            workers=args.workers,
            seed=args.seed,
            check_parity=True,
            check_plans=not args.no_check_plans,
        )
        report = _run_fleet_logged(cfg, args.telemetry)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_bench_report(report))
    return 0 if report.parity_ok is not False and report.drained_clean else 1


def fleet_bench_main(argv=None) -> int:
    """``fleet-bench``: the sharded multi-process chaos driver."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments fleet-bench",
        description="Stream synthetic LBR samples through the sharded "
        "multi-process fleet (kill / rebalance / autoscale chaos) and "
        "assert end-state plan parity against the offline pipeline.",
    )
    _add_common_args(parser)
    parser.add_argument(
        "--replicas", type=int, default=1, help="hot-shard replicas per key"
    )
    parser.add_argument(
        "--max-workers", type=int, default=8, help="autoscaler pool ceiling"
    )
    parser.add_argument(
        "--pipeline-depth",
        type=int,
        default=8,
        help="outstanding ingest acks kept in flight (raise past "
        "--queue-depth to provoke shedding)",
    )
    parser.add_argument(
        "--autoscale",
        action="store_true",
        help="enable the autoscaler (grow/shrink from live telemetry)",
    )
    parser.add_argument(
        "--autoscale-every",
        type=int,
        default=0,
        help="run one autoscaler tick every N journaled batches",
    )
    parser.add_argument(
        "--kill-after",
        type=int,
        default=None,
        metavar="N",
        help="SIGKILL one worker after N journaled batches",
    )
    parser.add_argument(
        "--rebalance-after",
        type=int,
        default=None,
        metavar="N",
        help="skew ring weights after N journaled batches",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="preset: tiny queues, deep pipeline, kill + rebalance + "
        "autoscaler ticks mid-stream",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="mirror the ingest journal to a JSONL file",
    )
    parser.add_argument(
        "--decisions",
        default=None,
        metavar="PATH",
        help="append autoscaler allocation decisions to a JSONL file",
    )
    parser.add_argument(
        "--no-check-parity",
        action="store_true",
        help="skip the online==offline plan parity assertion",
    )
    args = parser.parse_args(argv)

    queue_depth = args.queue_depth
    pipeline_depth = args.pipeline_depth
    autoscale = args.autoscale
    autoscale_every = args.autoscale_every
    kill_after = args.kill_after
    rebalance_after = args.rebalance_after
    if args.chaos:
        queue_depth = min(queue_depth, 4)
        pipeline_depth = max(pipeline_depth, 3 * queue_depth)
        autoscale = True
        autoscale_every = autoscale_every or 6
        kill_after = kill_after if kill_after is not None else 5
        rebalance_after = rebalance_after if rebalance_after is not None else 9

    try:
        cfg = ShardedFleetConfig(
            apps=_resolve_apps(args.apps),
            trace_instructions=(
                args.trace_instructions
                if args.trace_instructions is not None
                else int_from_env("REPRO_TRACE_INSTRUCTIONS", 12_000)
            ),
            batch_size=args.batch_size,
            workers=args.workers,
            replicas=args.replicas,
            max_workers=args.max_workers,
            queue_depth=queue_depth,
            pipeline_depth=pipeline_depth,
            autoscale=autoscale,
            autoscale_every=autoscale_every,
            kill_after=kill_after,
            rebalance_after=rebalance_after,
            seed=args.seed,
            check_parity=not args.no_check_parity,
            check_plans=not args.no_check_plans,
        )
        report = run_fleet_sharded(
            cfg,
            telemetry_path=args.telemetry,
            journal_path=args.journal,
            decisions_path=args.decisions,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_fleet_report(report))
    if cfg.check_parity and report.parity_ok is False:
        print(
            "error: served plans diverged from the offline pipeline",
            file=sys.stderr,
        )
        return 1
    if not report.drained_clean:
        print("error: fleet did not drain cleanly", file=sys.stderr)
        return 1
    if kill_after is not None and not report.crashed_workers:
        print(
            "error: --kill-after was set but no worker crash was recorded",
            file=sys.stderr,
        )
        return 1
    if rebalance_after is not None and not int(
        report.router_counters.get("fleet.rebalances", 0)
    ):
        print(
            "error: --rebalance-after was set but no rebalance ran",
            file=sys.stderr,
        )
        return 1
    return 0
