"""Fault-injection tests for the sharded multi-process fleet.

The contract under test (DESIGN.md §13): the fleet layer adds
placement, durability, and elasticity around today's ``PlanService``
but never analysis, so the online==offline plan-parity oracle must
hold through worker crashes (journal replay), rebalances under skew,
autoscaler actions, and a fleet-wide drain.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time
from dataclasses import replace

import pytest

from repro.config import ConfigError, SimConfig
from repro.core.twig import build_plan
from repro.errors import FleetError, ServiceError, ServiceOverload, WorkerCrashed
from repro.service import fleet
from repro.service.bench import (
    Chaos,
    Scenario,
    collect_sample_stream,
    run_fleet,
)
from repro.service.build import plans_equivalent
from repro.service.fleet import (
    DECISION_SCHEMA_VERSION,
    AllocationDecision,
    Autoscaler,
    FleetConfig,
    FleetRouter,
)
from repro.service.ingest import encode_samples
from repro.service.journal import IngestJournal, read_journal
from repro.service.server import (
    PlanService,
    ServiceConfig,
    default_workload_resolver,
)
from repro.telemetry.events import TelemetrySink
from repro.trace.walker import generate_trace
from repro.workloads.apps import app_names
from tests.test_service_ingress import MALFORMED, OUT_OF_RANGE, out_of_range_row

SIM_CFG = SimConfig()
BATCH = 64


@pytest.fixture(scope="module")
def app_streams():
    """Offline ground truth for two real apps: label, profile, stream."""
    resolver = default_workload_resolver()
    out = {}
    for app in ("wordpress", "drupal"):
        workload = resolver(app)
        inp = workload.spec.make_input(0)
        trace = generate_trace(workload, inp, max_instructions=6_000)
        profile, stream = collect_sample_stream(workload, trace, SIM_CFG)
        out[app] = (trace.label, profile, stream)
    return out


def chunks(stream):
    return [stream[i : i + BATCH] for i in range(0, len(stream), BATCH)]


def offline_plan(app, profile):
    return build_plan(default_workload_resolver()(app), profile, SIM_CFG)


@pytest.fixture(autouse=True)
def ring_seed_one(monkeypatch):
    """Every router of this module places its virtual nodes from seed 1."""
    monkeypatch.setattr(fleet, "RING_SEED", 1)


def make_router(**overrides) -> FleetRouter:
    fleet_kwargs = {"workers": 2}
    fleet_kwargs.update(overrides)
    return FleetRouter(
        config=FleetConfig(**fleet_kwargs),
        service_config=ServiceConfig(
            reservoir_capacity=1 << 20,
            deadline_ms=60_000,
            debounce_s=30.0,
        ),
        sim_config=SIM_CFG,
    )


# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_worker_kill_mid_stream_replays_to_identical_plans(
        self, app_streams
    ):
        """SIGKILL a primary mid-stream; journal replay must converge."""
        with make_router(workers=2) as router:
            batches = {app: chunks(s[2]) for app, s in app_streams.items()}
            # First batch of each shard lands before the crash.
            for app, (label, _p, _s) in app_streams.items():
                router.ingest(app, label, batches[app][0], seq=0)
            victim = router.ring.primary(("wordpress", app_streams["wordpress"][0]))
            router.kill_worker(victim)
            assert router.crashed_workers == [victim]
            # The pool healed to its configured size with a fresh worker.
            assert len(router.ring) == 2
            assert victim not in router.ring
            # Rest of both streams, post-crash.
            for app, (label, _p, _s) in app_streams.items():
                for seq, chunk in enumerate(batches[app][1:], start=1):
                    router.ingest(app, label, chunk, seq=seq)
            for app, (label, profile, _s) in app_streams.items():
                version = router.get_plan(app, label)
                assert plans_equivalent(version.plan, offline_plan(app, profile))
            counters = router.metrics.counters
            assert counters.get("fleet.worker_crashes") == 1
            assert counters.get("fleet.workers_replaced") == 1
            assert counters.get("fleet.replayed_batches", 0) >= 1
            report = router.stop()
            assert report["abandoned_shards"] == []

    def test_crashed_ack_is_journaled_not_lost(self, app_streams):
        """A WorkerCrashed ack means the batch IS durable: no resend."""
        label, profile, stream = app_streams["wordpress"]
        with make_router(workers=1) as router:
            pending = []
            for seq, chunk in enumerate(chunks(stream)):
                pending.append(
                    router.ingest_async("wordpress", label, chunk, seq=seq)
                )
            journaled = router.journal.count(("wordpress", label))
            assert journaled == len(chunks(stream))
            # Kill the only worker with acks potentially in flight.
            router.kill_worker(router.ring.workers()[0])
            # A WorkerCrashed ack (if the kill beat the worker to any
            # batch) does not reduce durability; a clean ack is equally
            # fine — parity through replay is the oracle either way.
            for future in pending:
                try:
                    future.result(timeout=60.0)
                except WorkerCrashed:
                    pass
            version = router.get_plan("wordpress", label)
            assert plans_equivalent(version.plan, offline_plan("wordpress", profile))
            assert router.journal.count(("wordpress", label)) == journaled

    def test_stop_replaces_a_last_worker_that_died_unseen(
        self, app_streams, tmp_path
    ):
        """A worker killed behind the router's back is reaped before
        intake closes: its replacement replays the journal and the
        drain publishes the shard."""
        label, profile, stream = app_streams["wordpress"]
        service_config = ServiceConfig(
            reservoir_capacity=1 << 20, deadline_ms=60_000, debounce_s=30.0
        )
        router = FleetRouter(
            config=FleetConfig(workers=1),
            service_config=service_config,
            sim_config=SIM_CFG,
            snapshot_dir=str(tmp_path),
        )
        router.start()
        router.ingest("wordpress", label, stream, seq=0)
        (victim,) = router._handles.values()
        os.kill(victim.pid, signal.SIGKILL)
        victim.process.join(10.0)
        assert not victim.process.is_alive()
        report = router.stop()
        shard = f"wordpress/{label}"
        assert report["router"]["published"] == {shard: 1}
        assert report["abandoned_shards"] == []
        assert report["router"]["crashed_workers"] == ["w0"]
        assert not router._started
        # The replacement's final snapshot holds the drained plan.
        drained = PlanService(
            config=replace(service_config, snapshot_dir=str(tmp_path / "w1")),
            sim_config=SIM_CFG,
        )
        drained.restore()
        version = drained.builder.latest(("wordpress", label))
        assert plans_equivalent(version.plan, offline_plan("wordpress", profile))

    def test_a_failed_drain_still_ends_the_workers_and_closes_the_logs(
        self, app_streams, tmp_path, monkeypatch
    ):
        """A drain that raises part way still kills the workers it did
        not end and closes the router's three logs."""
        label, _profile, stream = app_streams["wordpress"]
        router = FleetRouter(
            config=FleetConfig(workers=1),
            sim_config=SIM_CFG,
            telemetry_path=str(tmp_path / "telemetry.jsonl"),
            journal_path=str(tmp_path / "journal.jsonl"),
            decisions_path=str(tmp_path / "decisions.jsonl"),
        )
        router.start()
        router.ingest("wordpress", label, chunks(stream)[0], seq=0)
        (handle,) = router._handles.values()

        def no_owner(key):
            raise FleetError("hash ring has no workers; nothing can own keys")

        monkeypatch.setattr(router, "_owners", no_owner)
        with pytest.raises(FleetError, match="no workers"):
            router.stop()
        assert not handle.process.is_alive()
        assert router.telemetry._fh.closed
        assert router.journal._fh is None
        assert router._decisions_fh is None
        assert not router._started and not router._handles


def claim(marker_dir, limit: int) -> bool:
    """Whether this process is one of the first *limit* to get here.

    Each caller tries to create ``died-0`` .. ``died-<limit-1>`` with
    ``O_EXCL``; creating one is a claim, so across forked workers at
    most *limit* calls return True.
    """
    for i in range(limit):
        path = os.path.join(str(marker_dir), f"died-{i}")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return True
    return False


def exit_on(monkeypatch, kind: str, marker_dir, limit: int) -> None:
    """Patch the worker dispatch, before the fork, to kill the worker
    process on its *kind* request, for the first *limit* such requests."""
    real = fleet._dispatch

    async def dispatch(service, worker_id, request):
        if request.get("kind") == kind and claim(marker_dir, limit):
            os._exit(3)
        return await real(service, worker_id, request)

    monkeypatch.setattr(fleet, "_dispatch", dispatch)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a monkeypatched worker dispatch only reaches forked workers",
)
class TestWorkerDiesMidRequest:
    def test_get_plan_retries_after_its_primary_dies(
        self, app_streams, monkeypatch, tmp_path
    ):
        label, profile, stream = app_streams["wordpress"]
        exit_on(monkeypatch, "plan", tmp_path, limit=1)
        with make_router(workers=1) as router:
            for seq, chunk in enumerate(chunks(stream)):
                router.ingest("wordpress", label, chunk, seq=seq)
            version = router.get_plan("wordpress", label)
            assert plans_equivalent(version.plan, offline_plan("wordpress", profile))
            counters = router.metrics.counters
            assert counters["fleet.plan_retries_after_crash"] == 1
            assert counters["fleet.worker_crashes"] == 1
            assert counters["fleet.workers_replaced"] == 1

    def test_get_plan_gives_up_after_three_crashed_attempts(
        self, app_streams, monkeypatch, tmp_path
    ):
        label, profile, stream = app_streams["wordpress"]
        exit_on(monkeypatch, "plan", tmp_path, limit=3)
        with make_router(workers=1) as router:
            for seq, chunk in enumerate(chunks(stream)):
                router.ingest("wordpress", label, chunk, seq=seq)
            with pytest.raises(FleetError, match="failed on 3 attempts"):
                router.get_plan("wordpress", label)
            assert router.metrics.counters["fleet.plan_retries_after_crash"] == 3
            # The fourth worker, replayed from the journal, serves.
            version = router.get_plan("wordpress", label)
            assert plans_equivalent(version.plan, offline_plan("wordpress", profile))
            assert len(router.crashed_workers) == 3

    def test_stop_reports_a_worker_that_dies_during_drain(
        self, app_streams, monkeypatch, tmp_path
    ):
        exit_on(monkeypatch, "drain", tmp_path, limit=1)
        router = make_router(workers=2)
        router.start()
        for app, (label, _profile, stream) in app_streams.items():
            router.ingest(app, label, chunks(stream)[0], seq=0)
        report = router.stop()
        failed = [w for w, s in report["workers"].items() if "drain_error" in s]
        assert len(failed) == 1
        assert "died mid-drain" in report["workers"][failed[0]]["drain_error"]
        assert router.metrics.counters["fleet.drain_failures"] == 1


class TestIngress:
    def test_malformed_rows_are_refused_before_the_journal(self, app_streams):
        label, _profile, stream = app_streams["wordpress"]
        key = ("wordpress", label)
        with make_router(workers=1) as router:
            for kind, row in sorted(MALFORMED.items()):
                with pytest.raises(ServiceError, match="malformed samples"):
                    router.ingest("wordpress", label, [row], seq=0)
                assert router.journal.count(key) == 0, kind
            ack = router.ingest("wordpress", label, chunks(stream)[0], seq=0)
            assert ack.received == len(chunks(stream)[0])
            assert router.journal.count(key) == 1

    def test_samples_outside_the_workload_are_refused_before_the_journal(
        self, app_streams
    ):
        label, _profile, stream = app_streams["wordpress"]
        key = ("wordpress", label)
        rows = encode_samples(chunks(stream)[0])
        n_blocks = default_workload_resolver()("wordpress").n_blocks
        with make_router(workers=1) as router:
            for kind in OUT_OF_RANGE:
                bad = rows[:1] + [out_of_range_row(kind, rows, n_blocks)]
                with pytest.raises(ServiceError, match="of the app|app's"):
                    router.ingest("wordpress", label, bad, seq=0)
                assert router.journal.count(key) == 0, kind
            ack = router.ingest("wordpress", label, rows, seq=0)
            assert ack.received == len(rows)
            assert router.journal.count(key) == 1


# ----------------------------------------------------------------------
class TestRebalanceAndDrain:
    def test_rebalance_during_ingest_preserves_parity(self, app_streams):
        with make_router(workers=3) as router:
            batches = {app: chunks(s[2]) for app, s in app_streams.items()}
            for app, (label, _p, _s) in app_streams.items():
                router.ingest(app, label, batches[app][0], seq=0)
            # Skew the ring hard mid-stream.
            weights = {
                worker: (4.0 if i == 0 else 0.25)
                for i, worker in enumerate(router.ring.workers())
            }
            router.rebalance(weights)
            assert router.ring.describe() == weights
            for app, (label, _p, _s) in app_streams.items():
                for seq, chunk in enumerate(batches[app][1:], start=1):
                    router.ingest(app, label, chunk, seq=seq)
            for app, (label, profile, _s) in app_streams.items():
                version = router.get_plan(app, label)
                assert plans_equivalent(version.plan, offline_plan(app, profile))
            report = router.stop()
            assert report["abandoned_shards"] == []

    def test_rebalance_rejects_unknown_worker(self, app_streams):
        with make_router(workers=2) as router:
            with pytest.raises(FleetError, match="unknown fleet worker"):
                router.rebalance({"w99": 2.0})

    def test_drain_with_inflight_builds_publishes_every_shard(
        self, app_streams
    ):
        """Eager-debounce builds are pending at stop(); none may strand."""
        router = FleetRouter(
            config=FleetConfig(workers=2),
            # debounce 0 -> every ingest arms an immediate background
            # build, so stop() lands while builds are in flight.
            service_config=ServiceConfig(
                reservoir_capacity=1 << 20,
                deadline_ms=60_000,
                debounce_s=0.0,
            ),
            sim_config=SIM_CFG,
        )
        router.start()
        for app, (label, _profile, stream) in app_streams.items():
            for seq, chunk in enumerate(chunks(stream)):
                router.ingest(app, label, chunk, seq=seq)
        report = router.stop()
        assert report["abandoned_shards"] == []
        assert report["dirty_shards"] == []
        for app, (label, _profile, _stream) in app_streams.items():
            shard_name = f"{app}/{label}"
            assert report["router"]["published"].get(shard_name, 0) >= 1

    def test_stop_rejects_new_requests(self, app_streams):
        label, _profile, stream = app_streams["wordpress"]
        router = make_router(workers=2)
        router.start()
        router.ingest("wordpress", label, chunks(stream)[0], seq=0)
        router.stop()
        with pytest.raises(FleetError, match="not started"):
            router.ingest("wordpress", label, chunks(stream)[0], seq=0)


# ----------------------------------------------------------------------
class TestSheddingSemantics:
    def test_stalled_worker_sheds_and_shed_batches_are_not_journaled(
        self, app_streams
    ):
        """SIGSTOP the worker: the bounded queue fills, arrivals shed.

        Shed submissions must NOT be journaled (they are the retryable
        kind), and resending them after SIGCONT must fold exactly once
        -- parity is the oracle.
        """
        label, profile, stream = app_streams["wordpress"]
        # Small batches: enough submissions to overflow a depth-2 queue.
        all_chunks = [stream[i : i + 16] for i in range(0, len(stream), 16)]
        assert len(all_chunks) >= 4, "stream too short to overflow the queue"
        with make_router(workers=1, queue_depth=2) as router:
            handle = next(iter(router._handles.values()))
            os.kill(handle.pid, signal.SIGSTOP)
            pending = []
            sheds = 0
            accepted = 0
            try:
                # The stalled worker drains nothing: the bounded queue
                # fills and an arrival must shed.
                for seq, chunk in enumerate(all_chunks):
                    try:
                        pending.append(
                            router.ingest_async("wordpress", label, chunk, seq=seq)
                        )
                        accepted += 1
                    except ServiceOverload:
                        sheds += 1
                        break
                assert sheds == 1, "stalled worker must shed past queue_depth"
                assert router.journal.count(("wordpress", label)) == accepted
            finally:
                os.kill(handle.pid, signal.SIGCONT)
            # Resume from the shed chunk, retrying in place so per-shard
            # journal order still equals stream order.
            for seq in range(accepted, len(all_chunks)):
                while True:
                    try:
                        pending.append(
                            router.ingest_async(
                                "wordpress", label, all_chunks[seq], seq=seq
                            )
                        )
                        break
                    except ServiceOverload:
                        sheds += 1
                        time.sleep(0.005)
            for future in pending:
                future.result(timeout=60.0)
            assert router.journal.count(("wordpress", label)) == len(all_chunks)
            version = router.get_plan("wordpress", label)
            assert plans_equivalent(version.plan, offline_plan("wordpress", profile))
            snapshot = router.router_snapshot()
            assert sum(
                w["sheds"] for w in snapshot["worker_queues"].values()
            ) >= sheds


# ----------------------------------------------------------------------
class TestElasticity:
    def test_add_and_remove_worker_preserve_parity(self, app_streams):
        with make_router(workers=2, max_workers=4) as router:
            batches = {app: chunks(s[2]) for app, s in app_streams.items()}
            for app, (label, _p, _s) in app_streams.items():
                router.ingest(app, label, batches[app][0], seq=0)
            grown = router.add_worker()
            assert grown in router.ring
            for app, (label, _p, _s) in app_streams.items():
                for seq, chunk in enumerate(batches[app][1:], start=1):
                    router.ingest(app, label, chunk, seq=seq)
            victim = router.ring.workers()[0]
            router.remove_worker(victim)
            assert victim not in router.ring
            for app, (label, profile, _s) in app_streams.items():
                version = router.get_plan(app, label)
                assert plans_equivalent(version.plan, offline_plan(app, profile))

    def test_pool_bounds_enforced(self, app_streams):
        with make_router(workers=1, max_workers=1) as router:
            with pytest.raises(FleetError, match="max_workers"):
                router.add_worker()
            with pytest.raises(FleetError, match="min_workers"):
                router.remove_worker(router.ring.workers()[0])

    def test_autoscale_tick_records_decisions(self, app_streams):
        label, _profile, stream = app_streams["wordpress"]
        with make_router(workers=2, autoscale=True, max_workers=4) as router:
            router.ingest("wordpress", label, chunks(stream)[0], seq=0)
            decision = router.autoscale_tick()
            assert decision.tick == 1
            assert decision.action in ("grow", "shrink", "hold")
            record = decision.to_record()
            assert record["schema_version"] == DECISION_SCHEMA_VERSION
            assert record["event"] == "allocation"
            assert record["signals"]["workers"] == 2
            assert router.decisions[-1] is decision

    def test_decisions_reach_telemetry_and_jsonl(self, app_streams, tmp_path):
        """An instrumented tick lands in both sinks without colliding
        with the telemetry event-name field."""
        telemetry_path = str(tmp_path / "telemetry.jsonl")
        decisions_path = str(tmp_path / "decisions.jsonl")
        label, _profile, stream = app_streams["wordpress"]
        router = FleetRouter(
            config=FleetConfig(workers=2, autoscale=True),
            service_config=ServiceConfig(
                reservoir_capacity=1 << 20,
                deadline_ms=60_000,
                debounce_s=30.0,
            ),
            sim_config=SIM_CFG,
            telemetry_path=telemetry_path,
            decisions_path=decisions_path,
        )
        router.start()
        try:
            router.ingest("wordpress", label, chunks(stream)[0], seq=0)
            router.autoscale_tick()
        finally:
            router.stop()
        with open(decisions_path, encoding="utf-8") as fh:
            decisions = [json.loads(line) for line in fh if line.strip()]
        assert [d["event"] for d in decisions] == ["allocation", "allocation"]
        assert decisions[0]["tick"] == 1
        assert decisions[-1]["action"] == "drain"
        with open(telemetry_path, encoding="utf-8") as fh:
            events = [json.loads(line) for line in fh if line.strip()]
        allocations = [e for e in events if e.get("event") == "fleet_allocation"]
        assert len(allocations) == 2
        assert allocations[0]["action"] in ("grow", "shrink", "hold")

    def test_autoscale_disabled_always_holds(self, app_streams):
        with make_router(workers=2, autoscale=False) as router:
            decision = router.autoscale_tick()
            assert decision.action == "hold"
            assert decision.reason == "autoscale disabled"


class TestAutoscalerPolicy:
    CFG = FleetConfig(workers=2, autoscale=True, max_workers=4)

    def signals(self, **overrides):
        base = {
            "workers": 2,
            "max_queue_frac": 0.2,
            "sheds_delta": 0,
            "build_latency_s": None,
        }
        base.update(overrides)
        return base

    def test_grow_on_sheds(self):
        scaler = Autoscaler(self.CFG)
        action, reason = scaler.decide(self.signals(sheds_delta=3))
        assert action == "grow"
        assert "shed" in reason

    def test_grow_on_queue_pressure(self):
        scaler = Autoscaler(self.CFG)
        action, reason = scaler.decide(self.signals(max_queue_frac=0.9))
        assert action == "grow"
        assert "queue" in reason

    def test_grow_on_build_latency(self):
        scaler = Autoscaler(self.CFG)
        action, reason = scaler.decide(
            self.signals(build_latency_s=fleet.GROW_BUILD_LATENCY_S + 1)
        )
        assert action == "grow"
        assert "latency" in reason

    def test_hold_at_max(self):
        scaler = Autoscaler(self.CFG)
        action, reason = scaler.decide(
            self.signals(workers=4, sheds_delta=5)
        )
        assert action == "hold"
        assert "max" in reason

    def test_shrink_needs_consecutive_idle_ticks(self):
        scaler = Autoscaler(self.CFG)
        idle = self.signals(max_queue_frac=0.0)
        assert scaler.decide(idle)[0] == "hold"
        assert scaler.decide(idle)[0] == "hold"
        action, reason = scaler.decide(idle)
        assert action == "shrink"
        assert "idle" in reason
        # The streak resets after a shrink.
        assert scaler.decide(idle)[0] == "hold"

    def test_busy_tick_resets_idle_streak(self):
        scaler = Autoscaler(self.CFG)
        idle = self.signals(max_queue_frac=0.0)
        scaler.decide(idle)
        scaler.decide(idle)
        scaler.decide(self.signals(max_queue_frac=0.5))  # busy: reset
        assert scaler.decide(idle)[0] == "hold"
        assert scaler.decide(idle)[0] == "hold"
        assert scaler.decide(idle)[0] == "shrink"

    def test_hold_at_min(self):
        scaler = Autoscaler(self.CFG)
        idle = self.signals(workers=1, max_queue_frac=0.0)
        scaler.decide(idle)
        scaler.decide(idle)
        action, reason = scaler.decide(idle)
        assert action == "hold"
        assert "min" in reason


# ----------------------------------------------------------------------
class TestFleetConfigValidation:
    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"workers": 0}, "workers must be positive"),
            ({"replicas": 0}, "replicas must be >= 1"),
            ({"queue_depth": 0}, "queue_depth"),
            ({"workers": 9, "max_workers": 8}, "must lie in"),
        ],
    )
    def test_invalid_rejected(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            FleetConfig(**kwargs)

    def test_allocation_decision_is_json_serializable(self):
        decision = AllocationDecision(
            tick=3,
            action="grow",
            reason="queue 80% full",
            workers={"w0": 1.0},
            signals={"workers": 1},
        )
        round_tripped = json.loads(json.dumps(decision.to_record()))
        assert round_tripped["tick"] == 3
        assert round_tripped["action"] == "grow"


# ----------------------------------------------------------------------
class TestRouterConstructor:
    def test_unopenable_decisions_log_closes_the_other_logs(
        self, tmp_path, monkeypatch
    ):
        # The decisions log is opened last; when it cannot be opened the
        # telemetry log and journal mirror opened before it must close.
        opened = []

        def recording(cls):
            class Recording(cls):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    opened.append(self)

            return Recording

        monkeypatch.setattr(fleet, "TelemetrySink", recording(TelemetrySink))
        monkeypatch.setattr(fleet, "IngestJournal", recording(IngestJournal))
        blocker = tmp_path / "afile"
        blocker.write_text("")
        with pytest.raises(FleetError, match="cannot open decisions log"):
            FleetRouter(
                telemetry_path=str(tmp_path / "telemetry.jsonl"),
                journal_path=str(tmp_path / "journal.jsonl"),
                decisions_path=str(blocker / "decisions.jsonl"),
            )
        sink, journal = opened
        assert isinstance(sink, TelemetrySink) and sink._fh.closed
        assert isinstance(journal, IngestJournal) and journal._fh is None


# ----------------------------------------------------------------------
class TestSpawnedWorkers:
    def test_spawned_workers_run_the_routers_service_config(
        self, app_streams, monkeypatch
    ):
        """spawn: the ServiceConfig travels in the worker's process args."""
        label, _profile, stream = app_streams["wordpress"]
        monkeypatch.setattr(fleet, "START_METHOD", "spawn")
        router = FleetRouter(
            config=FleetConfig(workers=1),
            service_config=ServiceConfig(reservoir_capacity=777, queue_depth=33),
            sim_config=SIM_CFG,
        )
        router.start()
        try:
            router.ingest("wordpress", label, chunks(stream)[0], seq=0)
            stats = router.stats()
            (worker_stats,) = stats["workers"].values()
            assert worker_stats["config"]["reservoir_capacity"] == 777
            assert worker_stats["config"]["queue_depth"] == 33
            assert worker_stats["pid"] != os.getpid()
        finally:
            router.stop()


# ----------------------------------------------------------------------
class TestFleetChaosParityAllApps:
    def test_kill_rebalance_autoscale_drain_all_apps(self, tmp_path, monkeypatch):
        """The acceptance run: all 9 apps streamed through a fleet that
        suffers >=1 worker crash (journal replay), >=1 rebalance under
        skew, autoscaler ticks, and a full drain -- site-for-site
        parity for every app, plus the JSONL artifacts."""
        journal_path = str(tmp_path / "journal.jsonl")
        decisions_path = str(tmp_path / "decisions.jsonl")
        monkeypatch.setattr(fleet, "RING_SEED", 7)
        report = run_fleet(
            Scenario(
                apps=app_names(),
                trace_instructions=12_000,
                batch_size=BATCH,
                seed=7,
            ),
            FleetConfig(workers=3, replicas=2, autoscale=True),
            Chaos(kill_after=4, rebalance_after=8, autoscale_every=6),
            journal_path=journal_path,
            decisions_path=decisions_path,
        )
        assert len(report.apps) == len(app_names())
        for app, result in report.apps.items():
            assert result.parity is True, f"{app} diverged"
        assert report.parity_ok is True
        assert report.drained_clean
        assert len(report.crashed_workers) >= 1
        counters = report.router_counters
        assert int(counters.get("fleet.rebalances", 0)) >= 1
        assert int(counters.get("fleet.replayed_batches", 0)) >= 1
        # The journal mirror replays to the same accounting.
        mirrored = read_journal(journal_path)
        assert mirrored.stats() == report.fleet["router"]["journal"]
        # The allocation-decision artifact is valid JSONL with schema.
        with open(decisions_path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        assert records, "autoscaler must have recorded decisions"
        for record in records:
            assert record["schema_version"] == DECISION_SCHEMA_VERSION
            assert record["action"] in ("grow", "shrink", "hold", "rebalance", "drain")
