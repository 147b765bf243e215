"""Crash-recovery property suite: kill-and-restart convergence.

The durability theorem under test (DESIGN.md §14): a plan service
killed at *any* journaled-batch milestone and restarted from its
latest snapshot plus the journal suffix converges to exactly the state
of a run that never crashed — same fold state, hence byte-identical
served plans, same ``PlanVersion`` numbers, and the same ``PlanDiff``
lineage.  Kills land at seeded-random milestones so the suite probes
arbitrary snapshot/WAL interleavings while staying reproducible.

Covers the single-process service (snapshot + WAL restore) and the
sharded fleet (journal resume + replay into fresh workers).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.config import SimConfig
from repro.core.twig import build_plan
from repro.service.bench import _abandon_service, collect_sample_stream
from repro.service.build import plan_sites, plans_equivalent
from repro.service import fleet
from repro.service.fleet import FleetConfig, FleetRouter
from repro.service.server import (
    PlanService,
    ServiceConfig,
    default_workload_resolver,
)
from repro.trace.walker import generate_trace
from repro.workloads.rng import make_rng

SIM_CFG = SimConfig()
APPS = ("wordpress", "drupal", "kafka")
BATCH = 48


@pytest.fixture(scope="module")
def app_streams():
    """Offline ground truth for three real apps: label, profile, stream."""
    resolver = default_workload_resolver()
    out = {}
    for app in APPS:
        workload = resolver(app)
        inp = workload.spec.make_input(0)
        trace = generate_trace(workload, inp, max_instructions=6_000)
        profile, stream = collect_sample_stream(workload, trace, SIM_CFG)
        assert stream, f"{app}: no miss samples"
        out[app] = (trace.label, profile, stream)
    return out


def build_schedule(app_streams):
    """Round-robin batch interleave across apps: [(app, label, chunk, seq)]."""
    per_app = {
        app: [s[2][i : i + BATCH] for i in range(0, len(s[2]), BATCH)]
        for app, s in app_streams.items()
    }
    labels = {app: s[0] for app, s in app_streams.items()}
    schedule = []
    seqs = dict.fromkeys(per_app, 0)
    while any(per_app.values()):
        for app in sorted(per_app):
            if per_app[app]:
                chunk = per_app[app].pop(0)
                schedule.append((app, labels[app], chunk, seqs[app]))
                seqs[app] += 1
    return schedule


def lineage_record(version):
    """Everything lineage convergence promises, in comparable form."""
    return (
        version.key,
        version.version,
        version.generation,
        version.samples,
        version.diff,
        plan_sites(version.plan),
        version.plan.table,
    )


def make_service(state_dir: str) -> PlanService:
    return PlanService(
        workload_for=default_workload_resolver(),
        config=ServiceConfig(
            queue_depth=64,
            deadline_ms=60_000,
            reservoir_capacity=1 << 20,
            workers=1,
            # No background rebuilds: builds happen only at the shared
            # get_plan milestones, so both runs publish at identical
            # fold points and the lineage comparison is exact.
            debounce_s=30.0,
            journal_path=f"{state_dir}/journal.jsonl",
            snapshot_dir=f"{state_dir}/snapshots",
            snapshot_every=4,
        ),
        sim_config=SIM_CFG,
    )


async def drive(service, schedule, start, end, milestones, history, seen):
    """Ingest schedule[start:end], recording lineage at milestones."""
    for i in range(start, end):
        app, label, chunk, seq = schedule[i]
        await service.ingest(app, label, chunk, seq=seq)
        seen.add((app, label))
        if (i + 1) in milestones:
            snap = {}
            for key in sorted(seen):
                snap[key[0]] = lineage_record(
                    await service.get_plan(key[0], key[1])
                )
            history.append((i + 1, snap))


class TestSingleServiceRecovery:
    def test_randomized_kill_milestones_converge(
        self, app_streams, tmp_path
    ):
        schedule = build_schedule(app_streams)
        total = len(schedule)
        assert total >= 6, "need enough batches for kills between milestones"
        milestones = {total // 3, (2 * total) // 3, total}
        # Seeded-random kill points, excluding milestone boundaries so
        # every milestone's get_plan runs in both runs.
        rng = make_rng("service-recovery-kills", total)
        candidates = [i for i in range(1, total) if i not in milestones]
        kills = sorted(rng.sample(candidates, min(2, len(candidates))))

        # Uninterrupted baseline (same durability config: snapshots
        # and the WAL never influence fold or build results).
        baseline_history = []

        async def baseline():
            service = make_service(str(tmp_path / "baseline"))
            await service.start()
            await drive(
                service, schedule, 0, total, milestones,
                baseline_history, set(),
            )
            await service.stop()

        asyncio.run(baseline())

        # Interrupted run: one phase per kill, each in its own event
        # loop, abandoned without drain — only the snapshot directory
        # and the journal survive into the next phase.
        state_dir = str(tmp_path / "crashy")
        history = []
        seen = set()
        restore_reports = []
        bounds = [0] + kills + [total]
        for phase_idx in range(len(bounds) - 1):
            start, end = bounds[phase_idx], bounds[phase_idx + 1]

            async def phase(phase_idx=phase_idx, start=start, end=end):
                service = make_service(state_dir)
                if phase_idx > 0:
                    restore_reports.append(service.restore())
                await service.start()
                await drive(
                    service, schedule, start, end, milestones, history, seen
                )
                if end == total:
                    await service.stop()
                else:
                    await _abandon_service(service)

            asyncio.run(phase())

        assert len(restore_reports) == len(kills)
        for report in restore_reports:
            assert report["torn_records"] == 0
            assert report["snapshot_loaded"] or report["batches_replayed"] > 0
        # The theorem: identical milestones, versions, diffs, and plans.
        assert history == baseline_history

    def test_recovered_plan_matches_offline_pipeline(
        self, app_streams, tmp_path
    ):
        """Transitively with the parity suite: restart then offline==online."""
        schedule = build_schedule(app_streams)
        total = len(schedule)
        cut = total // 2
        state_dir = str(tmp_path / "state")

        async def phase1():
            service = make_service(state_dir)
            await service.start()
            await drive(service, schedule, 0, cut, set(), [], set())
            await _abandon_service(service)

        async def phase2():
            service = make_service(state_dir)
            service.restore()
            await service.start()
            await drive(service, schedule, cut, total, set(), [], set())
            plans = {}
            for app, (label, _p, _s) in app_streams.items():
                plans[app] = await service.get_plan(app, label)
            await service.stop()
            return plans

        asyncio.run(phase1())
        plans = asyncio.run(phase2())
        resolver = default_workload_resolver()
        for app, (label, profile, _stream) in app_streams.items():
            offline = build_plan(resolver(app), profile, SIM_CFG)
            assert plans_equivalent(plans[app].plan, offline), (
                f"{app}: recovered plan diverged from the offline pipeline"
            )


class TestFleetRecovery:
    @pytest.fixture(autouse=True)
    def ring_seed_one(self, monkeypatch):
        """Every router here places its virtual nodes from seed 1."""
        monkeypatch.setattr(fleet, "RING_SEED", 1)

    def make_router(self, journal_path: str) -> FleetRouter:
        return FleetRouter(
            config=FleetConfig(workers=2),
            service_config=ServiceConfig(
                reservoir_capacity=1 << 20,
                deadline_ms=60_000,
                debounce_s=30.0,
            ),
            sim_config=SIM_CFG,
            journal_path=journal_path,
        )

    def abandon(self, router: FleetRouter) -> None:
        """Simulate losing the whole fleet: SIGKILL every worker and
        drop the router without drain.  Only the journal survives."""
        for handle in list(router._handles.values()):
            handle.process.kill()
        for handle in list(router._handles.values()):
            handle.process.join(timeout=10)
        router.journal.close()

    def test_fleet_restart_mid_stream_converges(self, app_streams, tmp_path):
        journal_path = str(tmp_path / "fleet-journal.jsonl")
        per_app = {
            app: [s[2][i : i + BATCH] for i in range(0, len(s[2]), BATCH)]
            for app, s in app_streams.items()
        }

        def run_halves(router_factory, kill_between):
            router = router_factory()
            router.start()
            for app, (label, _p, _s) in app_streams.items():
                half = max(1, len(per_app[app]) // 2)
                for seq, chunk in enumerate(per_app[app][:half]):
                    router.ingest(app, label, chunk, seq=seq)
            if kill_between:
                self.abandon(router)
                router = router_factory()
                router.start()
            for app, (label, _p, _s) in app_streams.items():
                half = max(1, len(per_app[app]) // 2)
                for seq, chunk in enumerate(
                    per_app[app][half:], start=half
                ):
                    router.ingest(app, label, chunk, seq=seq)
            plans = {}
            for app, (label, _p, _s) in app_streams.items():
                plans[app] = lineage_record(router.get_plan(app, label))
            router.stop()
            return plans

        interrupted = run_halves(
            lambda: self.make_router(journal_path), kill_between=True
        )
        baseline = run_halves(
            lambda: self.make_router(str(tmp_path / "baseline.jsonl")),
            kill_between=False,
        )
        # Same versions, same diffs, site-for-site identical plans: the
        # resumed journal replayed every pre-kill batch into the fresh
        # workers before any post-kill traffic touched them.
        assert interrupted == baseline

    def test_fleet_wide_kill_restores_from_worker_snapshots(
        self, app_streams, tmp_path
    ):
        """With per-worker snapshot stores, a fleet-wide kill recovers
        from the workers' own snapshots: a restarted router regenerates
        the same worker ids, each worker restores its shards and plan
        lineage locally, and the hello handshake seeds the router's
        delivery cursors — so nothing is replayed from batch 0, yet the
        lineage still converges with an uninterrupted run."""
        per_app = {
            app: [s[2][i : i + BATCH] for i in range(0, len(s[2]), BATCH)]
            for app, s in app_streams.items()
        }
        labels = {app: s[0] for app, s in app_streams.items()}

        def make_router(tag: str) -> FleetRouter:
            return FleetRouter(
                config=FleetConfig(workers=2, replicas=1),
                service_config=ServiceConfig(
                    reservoir_capacity=1 << 20,
                    deadline_ms=60_000,
                    debounce_s=30.0,
                    # Snapshot after every folded batch: each ingest ack
                    # implies a durable snapshot, so the post-kill
                    # journal suffix is exactly empty.
                    snapshot_every=1,
                ),
                sim_config=SIM_CFG,
                journal_path=str(tmp_path / f"{tag}.jsonl"),
                snapshot_dir=str(tmp_path / f"{tag}-snapshots"),
            )

        def run(tag: str, kill_between: bool):
            router = make_router(tag)
            router.start()
            prekill = 0
            for app in sorted(per_app):
                half = max(1, len(per_app[app]) // 2)
                for seq, chunk in enumerate(per_app[app][:half]):
                    router.ingest(app, labels[app], chunk, seq=seq)
                    prekill += 1
            # Publish v1 before the kill so the restart must restore
            # plan lineage, not just fold state.
            mid = {
                app: lineage_record(router.get_plan(app, labels[app]))
                for app in sorted(per_app)
            }
            if kill_between:
                self.abandon(router)
                router = make_router(tag)
                router.start()
                counters = router.metrics.counters
                assert counters.get("fleet.workers_restored", 0) >= 1
                assert counters.get("fleet.seeded_batches", 0) == prekill
            for app in sorted(per_app):
                half = max(1, len(per_app[app]) // 2)
                for seq, chunk in enumerate(
                    per_app[app][half:], start=half
                ):
                    router.ingest(app, labels[app], chunk, seq=seq)
            final = {
                app: lineage_record(router.get_plan(app, labels[app]))
                for app in sorted(per_app)
            }
            report = router.stop()
            replayed = report["router"]["counters"].get(
                "fleet.replayed_batches", 0
            )
            return mid, final, replayed

        mid_i, final_i, replayed_i = run("snap-crashy", kill_between=True)
        mid_b, final_b, _ = run("snap-baseline", kill_between=False)
        # Worker snapshots covered the whole pre-kill prefix, so the
        # restarted fleet replayed zero journal batches...
        assert replayed_i == 0
        # ...and still converged: same versions, diffs, and plans at
        # both the pre-kill and final milestones.
        assert mid_i == mid_b
        assert final_i == final_b
