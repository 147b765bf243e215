"""Drift engine suite: determinism, epochs, and the canary E2E proof.

Three contracts from DESIGN §16 are pinned here:

1. **Determinism** — the same ``(stream, scenario, seed)`` produces
   identical phase schedules, changelogs, derived views, canary
   verdicts, and rollback lineage.
2. **Profile epochs** — a rolling deploy resets the shard's sample
   state while plan lineage survives; the reset is journaled at its
   exact stream position and replays correctly whether or not the
   latest snapshot already reflects it.
3. **The canary proof** — an injected rolling-deploy regression is
   detected from post-publish miss feedback and auto-rolled-back;
   the rollback survives a kill-and-restore with identical lineage;
   a no-regression scenario promotes; and a service killed mid-way
   through the feedback stream converges to the same verdict once
   the client replays the (unjournaled) feedback from the start.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.config import SimConfig
from repro.drift.canary import CanarySettings
from repro.drift.feedback import (
    SCORE_COVERED,
    SCORE_HIT,
    SCORE_STALE,
    SCORE_UNCOVERED,
    EffectivenessTracker,
    RegressionDetector,
    assign_arm,
    score_sample,
)
from repro.drift.scenarios import (
    SCENARIO_KINDS,
    ensure_fresh,
    feedback_view,
    ingest_view,
    make_schedule,
    stale_sites,
)
from repro.errors import DriftError, PlanStaleError
from repro.profiling.profile import MissSample
from repro.service.bench import _abandon_service, collect_sample_stream
from repro.service.build import plan_sites
from repro.service.ingest import ShardState
from repro.service.server import (
    PlanService,
    ServiceConfig,
    default_workload_resolver,
)
from repro.trace.walker import generate_trace

SIM_CFG = SimConfig()
APP = "wordpress"
BATCH = 64


@pytest.fixture(scope="module")
def wp_stream():
    """One profiled miss-sample stream: (trace label, stream)."""
    resolver = default_workload_resolver()
    workload = resolver(APP)
    trace = generate_trace(
        workload, workload.spec.make_input(0), max_instructions=8_000
    )
    _profile, stream = collect_sample_stream(workload, trace, SIM_CFG)
    # Both canary arms must close 2 windows of 16 before a verdict (so
    # >= 64 scored samples), with margin for the split's jitter.
    assert len(stream) >= 160, "stream too short to close canary windows"
    return trace.label, stream


# ----------------------------------------------------------------------
# Episode driver (mirrors the drift-bench flow, compact)
# ----------------------------------------------------------------------

def _settings() -> CanarySettings:
    return CanarySettings(enabled=True, window=16, threshold=0.05)


def _drift_service(state_dir: str) -> PlanService:
    return PlanService(
        workload_for=default_workload_resolver(),
        config=ServiceConfig(
            # Only explicit get_plan requests build: the lineage is
            # exactly baseline-then-candidate.
            debounce_s=60.0,
            deadline_ms=60_000,  # builds under parallel-suite load
            journal_path=f"{state_dir}/journal.jsonl",
            snapshot_dir=f"{state_dir}/snapshots",
            snapshot_every=1_000_000,  # snapshots ride on publishes/verdicts
        ),
        sim_config=SIM_CFG,
        canary=_settings(),
    )


async def _run_episode(
    state_dir: str,
    label: str,
    stream,
    scenario: str,
    seed: int = 0,
    kill_mid_feedback: bool = False,
):
    """One drift episode; returns every lineage-relevant observable."""
    schedule = make_schedule(stream, scenario, seed, phases=2)
    key = (APP, label)
    full = ingest_view(stream, schedule)
    pre = ingest_view(stream[: schedule.phases[0].stop], schedule)
    post = full[len(pre):]
    feedback = feedback_view(stream, schedule, deployed_fraction=0.25)
    relocated = set(schedule.relocated_pcs().values())

    service = _drift_service(state_dir)
    await service.start()
    for seq, start in enumerate(range(0, len(pre), BATCH)):
        await service.ingest(APP, label, pre[start : start + BATCH], seq=seq)
    baseline = await service.get_plan(APP, label)
    epoch = 0
    if schedule.relocations():
        epoch = await service.new_epoch(APP, label)
    seq0 = (len(pre) + BATCH - 1) // BATCH
    for seq, start in enumerate(range(0, len(post), BATCH)):
        await service.ingest(
            APP, label, post[start : start + BATCH], seq=seq0 + seq
        )
    await service.get_plan(APP, label)  # stages the candidate

    # Feedback flows in batches of 32: a verdict needs >= 64 scored
    # samples (2 windows of 16 per arm), so killing before batch 1 is
    # always mid-canary — progress exists, the verdict does not.
    fb = 32
    batches = [feedback[s : s + fb] for s in range(0, len(feedback), fb)]
    kill_at = 1 if kill_mid_feedback else None
    verdict = None
    i = 0
    while i < len(batches):
        if kill_at is not None and i == kill_at:
            # Crash mid-canary.  Feedback is not journaled (it never
            # reaches the plan builder), so the client's replay contract
            # is from the start; the restored canary counter is 0 and
            # the deterministic split reproduces the exact same arms.
            await _abandon_service(service)
            service = _drift_service(state_dir)
            service.restore()
            await service.start()
            kill_at = None
            i = 0
            continue
        reply = await service.feedback(
            APP, label, batches[i], stale_pcs=relocated, seq=i
        )
        if reply["verdicts"]:
            verdict = reply["verdicts"][0]
            break
        i += 1

    state = service.canary.states.get(key)
    active = service.canary.active(key)
    live = {
        "schedule": schedule,
        "epoch": epoch,
        "baseline_version": baseline.version,
        "verdict": None if verdict is None else verdict["decision"],
        "active_version": active.version if active is not None else 0,
        "active_sites": tuple(sorted(plan_sites(active.plan)))
        if active is not None
        else (),
        "observed": state.observed if state is not None else 0,
        "history": tuple(state.history) if state is not None else (),
    }

    # Kill after the verdict and restore: the rollback (or promotion)
    # must survive with identical lineage and active plan.
    await _abandon_service(service)
    revived = _drift_service(state_dir)
    revived.restore()
    await revived.start()
    restored_state = revived.canary.states.get(key)
    restored_active = revived.canary.active(key)
    live["restored_active_version"] = (
        restored_active.version if restored_active is not None else 0
    )
    live["restored_active_sites"] = (
        tuple(sorted(plan_sites(restored_active.plan)))
        if restored_active is not None
        else ()
    )
    live["restored_history"] = (
        tuple(restored_state.history) if restored_state is not None else ()
    )
    await revived.stop()
    return live


def _episode(tmp_path, label, stream, scenario, **kw):
    return asyncio.run(
        _run_episode(str(tmp_path), label, stream, scenario, **kw)
    )


def _lineage_view(ep):
    """The fields two equivalent episodes must agree on exactly."""
    return {
        k: ep[k]
        for k in (
            "schedule", "epoch", "baseline_version", "verdict",
            "active_version", "active_sites", "observed", "history",
            "restored_active_version", "restored_active_sites",
            "restored_history",
        )
    }


# ----------------------------------------------------------------------
# Layer 1: schedules and views
# ----------------------------------------------------------------------

class TestScheduleDeterminism:
    @pytest.mark.parametrize("scenario", SCENARIO_KINDS)
    def test_same_inputs_same_schedule(self, wp_stream, scenario):
        _label, stream = wp_stream
        a = make_schedule(stream, scenario, seed=7, phases=3)
        b = make_schedule(stream, scenario, seed=7, phases=3)
        assert a == b
        assert ingest_view(stream, a) == ingest_view(stream, b)
        assert feedback_view(stream, a) == feedback_view(stream, b)

    def test_seed_changes_the_changelog(self, wp_stream):
        _label, stream = wp_stream
        a = make_schedule(stream, "deploy", seed=0)
        b = make_schedule(stream, "deploy", seed=1)
        assert a.changelog != b.changelog

    def test_phases_partition_the_stream(self, wp_stream):
        _label, stream = wp_stream
        schedule = make_schedule(stream, "diurnal", seed=0, phases=4)
        assert schedule.phases[0].start == 0
        assert schedule.phases[-1].stop == len(stream)
        for prev, cur in zip(schedule.phases, schedule.phases[1:]):
            assert prev.stop == cur.start

    def test_steady_has_empty_changelog(self, wp_stream):
        _label, stream = wp_stream
        schedule = make_schedule(stream, "steady", seed=0)
        assert schedule.changelog == ()
        assert ingest_view(stream, schedule) == tuple(stream)

    def test_unknown_scenario_rejected(self, wp_stream):
        _label, stream = wp_stream
        with pytest.raises(DriftError):
            make_schedule(stream, "meteor", seed=0)


class TestViews:
    def test_deploy_drops_relocated_from_ingest(self, wp_stream):
        _label, stream = wp_stream
        schedule = make_schedule(stream, "deploy", seed=0)
        moved = schedule.relocations()
        assert moved, "deploy schedule relocated nothing"
        boundary = schedule.phases[0].stop
        view = ingest_view(stream, schedule)
        # Deploy applies no weights, so the only change is the drop of
        # relocated blocks after the boundary: their occurrence count
        # in the view equals their phase-0 count exactly.
        in_phase0 = sum(1 for s in stream[:boundary] if s.miss_block in moved)
        in_phase1 = sum(1 for s in stream[boundary:] if s.miss_block in moved)
        in_view = sum(1 for s in view if s.miss_block in moved)
        assert in_phase1 > 0, "relocation touched no post-boundary samples"
        assert in_view == in_phase0

    def test_feedback_view_runs_relocated_code(self, wp_stream):
        _label, stream = wp_stream
        schedule = make_schedule(stream, "deploy", seed=0)
        new_pcs = set(schedule.relocated_pcs().values())
        fed = feedback_view(stream, schedule, deployed_fraction=1.0)
        assert any(s.miss_pc in new_pcs for s in fed)
        none_deployed = feedback_view(stream, schedule, deployed_fraction=0.0)
        assert not any(s.miss_pc in new_pcs for s in none_deployed)

    def test_typed_staleness_gate(self, wp_stream, tmp_path):
        """An old-layout plan dangles after a relocation: the gate must
        raise the typed error naming the exact ground-truth sites."""
        label, stream = wp_stream
        schedule = make_schedule(stream, "deploy", seed=0)

        async def build_baseline():
            service = _drift_service(str(tmp_path))
            await service.start()
            pre = ingest_view(stream[: schedule.phases[0].stop], schedule)
            await service.ingest(APP, label, pre, seq=0)
            version = await service.get_plan(APP, label)
            await service.stop()
            return version

        baseline = asyncio.run(build_baseline())
        dangling = stale_sites(baseline.plan, schedule)
        assert dangling, "relocation invalidated no plan site"
        with pytest.raises(PlanStaleError) as err:
            ensure_fresh((APP, label), baseline.plan, schedule)
        assert tuple(err.value.stale_sites) == dangling
        # Steady control: nothing dangles, the gate stays silent.
        steady = make_schedule(stream, "steady", seed=0)
        assert stale_sites(baseline.plan, steady) == ()
        ensure_fresh((APP, label), baseline.plan, steady)


# ----------------------------------------------------------------------
# Layer 2: feedback scoring
# ----------------------------------------------------------------------

class TestFeedbackScoring:
    INDEX = {0x100: {7, 9}}

    def test_score_order(self):
        covered = MissSample(miss_pc=0x100, miss_block=4, window=((3, 0),))
        hit = MissSample(miss_pc=0x100, miss_block=4, window=((7, 0),))
        unknown = MissSample(miss_pc=0x200, miss_block=4, window=((7, 0),))
        assert score_sample(self.INDEX, covered) == SCORE_COVERED
        assert score_sample(self.INDEX, hit) == SCORE_HIT
        assert score_sample(self.INDEX, unknown) == SCORE_UNCOVERED
        # Typed staleness wins over everything, plan or no plan.
        assert score_sample(self.INDEX, hit, stale_pcs={0x100}) == SCORE_STALE

    def test_tracker_windows_and_roundtrip(self):
        tracker = EffectivenessTracker(window=4)
        for score in (SCORE_HIT, SCORE_COVERED, SCORE_UNCOVERED, SCORE_STALE):
            closed = tracker.observe(score)
        assert closed == 0.5  # 2 of 4 covered
        assert tracker.scores == [0.5]
        assert tracker.hit_scores == [0.25]
        assert tracker.stale_scores == [0.25]
        tracker.observe(SCORE_HIT)  # leaves an open window behind
        clone = EffectivenessTracker.from_dict(tracker.to_dict())
        assert clone.to_dict() == tracker.to_dict()
        # The clone continues exactly where the original would.
        for t in (tracker, clone):
            for _ in range(3):
                t.observe(SCORE_COVERED)
        assert clone.scores == tracker.scores == [0.5, 1.0]

    def test_detector_threshold(self):
        detector = RegressionDetector(threshold=0.1, windows=2, seed=0)
        base, cand = EffectivenessTracker(1), EffectivenessTracker(1)
        with pytest.raises(DriftError):
            detector.regressed(base, cand)
        for _ in range(2):
            base.observe(SCORE_COVERED)   # 1.0, 1.0
            cand.observe(SCORE_UNCOVERED)  # 0.0, 0.0
        assert detector.ready(base, cand)
        assert detector.regressed(base, cand)
        close = EffectivenessTracker(1)
        for _ in range(2):
            close.observe(SCORE_COVERED)
        assert not detector.regressed(base, close)

    def test_arm_assignment_deterministic_split(self):
        key = (APP, "i0")
        arms = [assign_arm(0, key, i, 0.5) for i in range(400)]
        assert arms == [assign_arm(0, key, i, 0.5) for i in range(400)]
        candidate_share = arms.count("candidate") / len(arms)
        assert 0.4 < candidate_share < 0.6
        with pytest.raises(DriftError):
            assign_arm(0, key, 0, 1.0)


# ----------------------------------------------------------------------
# Profile epochs
# ----------------------------------------------------------------------

class TestProfileEpochs:
    def test_reset_epoch_restarts_fold_deterministically(self, wp_stream):
        label, stream = wp_stream
        from repro.service.ingest import SampleBatch

        batch = SampleBatch(
            app_name=APP, input_label=label, samples=tuple(stream[:100])
        )
        fresh = ShardState((APP, label), reservoir_capacity=64, seed=3)
        fresh.absorb(batch)
        reset = ShardState((APP, label), reservoir_capacity=64, seed=3)
        reset.absorb(batch)
        epoch = reset.reset_epoch()
        assert epoch == reset.epoch == 1
        assert len(reset.reservoir) == 0
        assert reset.counters.batches == 0
        # Monotonic generation: the reset itself dirties the shard.
        assert reset.generation == 2
        # Same seeds: folding the same batch post-reset retains exactly
        # what a fresh shard would.
        reset.absorb(batch)
        assert reset.reservoir.items == fresh.reservoir.items

    def _epoch_run(self, state_dir, label, batches, snapshots: bool):
        """Ingest 2 batches, epoch, 2 batches; abandon; return service."""
        config = ServiceConfig(
            debounce_s=60.0,
            deadline_ms=60_000,  # builds under parallel-suite load
            journal_path=f"{state_dir}/journal.jsonl",
            snapshot_dir=f"{state_dir}/snapshots" if snapshots else None,
            snapshot_every=1_000_000,
        )

        def make():
            return PlanService(
                workload_for=default_workload_resolver(),
                config=config,
                sim_config=SIM_CFG,
            )

        async def crashy():
            service = make()
            await service.start()
            for seq in (0, 1):
                await service.ingest(APP, label, batches[seq], seq=seq)
            await service.new_epoch(APP, label)
            for seq in (2, 3):
                await service.ingest(APP, label, batches[seq], seq=seq)
            await _abandon_service(service)

        async def revive():
            service = make()
            report = service.restore()
            await service.start()
            plan = await service.get_plan(APP, label)
            shard = service.buffer.get((APP, label))
            state = (
                shard.epoch,
                shard.counters.batches,
                tuple(shard.reservoir.items),
            )
            await service.stop()
            return report, plan, state

        asyncio.run(crashy())
        return asyncio.run(revive())

    def _uninterrupted_reference(self, state_dir, label, batches):
        async def run():
            service = PlanService(
                workload_for=default_workload_resolver(),
                config=ServiceConfig(debounce_s=60.0, deadline_ms=60_000),
                sim_config=SIM_CFG,
            )
            await service.start()
            for seq in (0, 1):
                await service.ingest(APP, label, batches[seq], seq=seq)
            await service.new_epoch(APP, label)
            for seq in (2, 3):
                await service.ingest(APP, label, batches[seq], seq=seq)
            plan = await service.get_plan(APP, label)
            shard = service.buffer.get((APP, label))
            state = (
                shard.epoch,
                shard.counters.batches,
                tuple(shard.reservoir.items),
            )
            await service.stop()
            return plan, state

        return asyncio.run(run())

    @pytest.fixture()
    def epoch_batches(self, wp_stream):
        label, stream = wp_stream
        quarter = len(stream) // 4
        return label, [
            stream[i * quarter : (i + 1) * quarter] for i in range(4)
        ]

    def test_epoch_replays_at_position_without_snapshot(
        self, epoch_batches, tmp_path
    ):
        """Journal-only recovery: the reset replays between batch 2 and
        batch 3, exactly where the live run issued it."""
        label, batches = epoch_batches
        report, plan, state = self._epoch_run(
            str(tmp_path / "a"), label, batches, snapshots=False
        )
        assert report["epochs_replayed"] == 1
        assert report["batches_replayed"] == 4
        ref_plan, ref_state = self._uninterrupted_reference(
            str(tmp_path / "ref"), label, batches
        )
        assert state == ref_state
        assert plan_sites(plan.plan) == plan_sites(ref_plan.plan)

    def test_epoch_snapshot_already_reflects_reset(
        self, epoch_batches, tmp_path
    ):
        """Snapshot + journal recovery: the epoch-reset snapshot means
        replay must NOT re-apply the reset (the epoch number in the
        journal event disambiguates), and the suffix folds on top."""
        label, batches = epoch_batches
        report, plan, state = self._epoch_run(
            str(tmp_path / "b"), label, batches, snapshots=True
        )
        assert report["snapshot_loaded"]
        assert report["epochs_replayed"] == 0
        # Only the post-snapshot suffix (batches 2 and 3) replays.
        assert report["batches_replayed"] == 2
        ref_plan, ref_state = self._uninterrupted_reference(
            str(tmp_path / "ref"), label, batches
        )
        assert state == ref_state
        assert plan_sites(plan.plan) == plan_sites(ref_plan.plan)

    def test_epoch_unknown_shard_rejected(self, tmp_path):
        async def run():
            service = PlanService(
                workload_for=default_workload_resolver(),
                config=ServiceConfig(),
                sim_config=SIM_CFG,
            )
            await service.start()
            from repro.errors import ServiceError

            with pytest.raises(ServiceError):
                await service.new_epoch(APP, "never-ingested")
            await service.stop()

        asyncio.run(run())


# ----------------------------------------------------------------------
# Layer 3: the canary E2E proof
# ----------------------------------------------------------------------

class TestCanaryEndToEnd:
    @pytest.fixture(scope="class")
    def deploy_episode(self, wp_stream, tmp_path_factory):
        label, stream = wp_stream
        return _episode(
            tmp_path_factory.mktemp("deploy"), label, stream, "deploy"
        )

    def test_deploy_regression_rolls_back(self, deploy_episode):
        ep = deploy_episode
        # The deploy boundary started a fresh profile epoch, so the
        # candidate was built without the relocated sites...
        assert ep["epoch"] == 1
        # ...the feedback differential detected the regression...
        assert ep["verdict"] == "rolled_back"
        # ...and the baseline keeps serving: active == v1, lineage
        # records the full staged-then-rolled-back story.
        assert ep["baseline_version"] == 1
        assert ep["active_version"] == 1
        assert ep["history"] == (
            ("activated", 1), ("staged", 2), ("rolled_back", 2),
        )

    def test_rollback_survives_kill_and_restore(self, deploy_episode):
        ep = deploy_episode
        assert ep["restored_active_version"] == ep["active_version"]
        assert ep["restored_active_sites"] == ep["active_sites"]
        assert ep["restored_history"] == ep["history"]

    def test_steady_scenario_promotes(self, wp_stream, tmp_path):
        label, stream = wp_stream
        ep = _episode(tmp_path, label, stream, "steady")
        assert ep["epoch"] == 0  # no relocation, no epoch reset
        assert ep["verdict"] == "promoted"
        assert ep["active_version"] == 2
        assert ep["history"] == (
            ("activated", 1), ("staged", 2), ("promoted", 2),
        )
        assert ep["restored_history"] == ep["history"]
        assert ep["restored_active_version"] == 2

    def test_mid_stream_restart_converges(
        self, wp_stream, tmp_path, deploy_episode
    ):
        """Kill the service mid-canary, restore, replay feedback from
        the start: verdict, observation count, and lineage all match
        the uninterrupted episode exactly."""
        label, stream = wp_stream
        killed = _episode(
            tmp_path, label, stream, "deploy", kill_mid_feedback=True
        )
        assert _lineage_view(killed) == _lineage_view(deploy_episode)
