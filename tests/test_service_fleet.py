"""Fault-injection tests for the sharded multi-process fleet.

The contract under test (DESIGN.md §13): the fleet layer adds
placement, durability, and elasticity around today's ``PlanService``
but never analysis, so the online==offline plan-parity oracle must
hold through worker crashes (journal replay), rebalances under skew,
autoscaler actions, and a fleet-wide drain.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.config import ConfigError, SimConfig
from repro.core.twig import build_plan
from repro.errors import FleetError, ServiceOverload, WorkerCrashed
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
from repro.service.journal import read_journal
from repro.service.server import ServiceConfig, default_workload_resolver
from repro.trace.walker import generate_trace
from repro.workloads.apps import app_names

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


def make_router(**overrides) -> FleetRouter:
    fleet_kwargs = {"workers": 2, "seed": 1}
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
        with make_router(workers=1, min_workers=1) as router:
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
            config=FleetConfig(workers=2, seed=1),
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
        with make_router(workers=1, min_workers=1, queue_depth=2) as router:
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
        with make_router(workers=2, min_workers=1, max_workers=4) as router:
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
        with make_router(workers=2, min_workers=2, max_workers=2) as router:
            with pytest.raises(FleetError, match="max_workers"):
                router.add_worker()
            with pytest.raises(FleetError, match="min_workers"):
                router.remove_worker(router.ring.workers()[0])

    def test_autoscale_tick_records_decisions(self, app_streams):
        label, _profile, stream = app_streams["wordpress"]
        with make_router(
            workers=2, autoscale=True, min_workers=1, max_workers=4
        ) as router:
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
            config=FleetConfig(workers=2, seed=1, autoscale=True),
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
    CFG = FleetConfig(
        workers=2,
        autoscale=True,
        min_workers=1,
        max_workers=4,
        grow_queue_frac=0.75,
        grow_shed_delta=1,
        shrink_queue_frac=0.05,
        shrink_idle_ticks=3,
    )

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
            self.signals(build_latency_s=self.CFG.grow_build_latency_s + 1)
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
            ({"min_workers": 0}, "min_workers"),
            ({"min_workers": 3, "max_workers": 2}, "max_workers"),
            ({"workers": 9, "max_workers": 8}, "must lie in"),
            ({"queue_depth": 0}, "queue_depth"),
            ({"worker_deadline_ms": 0}, "worker_deadline_ms"),
            ({"request_timeout_s": 0}, "request_timeout_s"),
            ({"start_method": "threads"}, "start_method"),
            ({"grow_queue_frac": 1.5}, "grow_queue_frac"),
            ({"shrink_queue_frac": 0.9}, "shrink_queue_frac"),
            ({"shrink_idle_ticks": 0}, "shrink_idle_ticks"),
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
class TestSpawnedWorkers:
    def test_spawned_workers_run_the_routers_service_config(
        self, app_streams
    ):
        """spawn: the ServiceConfig travels in the worker's process args."""
        label, _profile, stream = app_streams["wordpress"]
        router = FleetRouter(
            config=FleetConfig(workers=1, min_workers=1, start_method="spawn"),
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
    def test_kill_rebalance_autoscale_drain_all_apps(self, tmp_path):
        """The acceptance run: all 9 apps streamed through a fleet that
        suffers >=1 worker crash (journal replay), >=1 rebalance under
        skew, autoscaler ticks, and a full drain -- site-for-site
        parity for every app, plus the JSONL artifacts."""
        journal_path = str(tmp_path / "journal.jsonl")
        decisions_path = str(tmp_path / "decisions.jsonl")
        report = run_fleet(
            Scenario(
                apps=app_names(),
                trace_instructions=12_000,
                batch_size=BATCH,
                seed=7,
            ),
            FleetConfig(workers=3, replicas=2, autoscale=True, seed=7),
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
