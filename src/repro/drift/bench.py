"""The drift run: measure the drift engine end to end.

For each ``(app, scenario kind)`` pair the driver replays one full
drift episode against a durably-configured
:class:`~repro.service.server.PlanService` with canarying enabled:

1. stream the pre-drift ingest view in and publish the baseline plan;
2. measure **staleness detection**: how many dangling sites the
   ground-truth changelog proves (:func:`~repro.drift.scenarios.stale_sites`
   must agree with the typed :class:`~repro.errors.PlanStaleError`) and
   how many feedback samples arrive before the first stale-classified
   one (detection latency);
3. stream the post-drift ingest view and stage the candidate plan;
4. replay the live-fleet feedback view until the canary renders its
   verdict, recording samples-to-verdict and whether the decision
   matches the scenario's expectation (``deploy`` must roll back,
   everything else must promote) — **verdict accuracy**;
5. kill the service without draining, restore a fresh one from the
   snapshot + WAL, and check the active version and the full lineage
   history survived identically — **rollback correctness**.

:func:`drift_report_to_dict` is the schema-versioned
``BENCH_drift.json`` payload; every number in it but ``wall_s`` is a
pure function of the seed.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config import SimConfig
from ..errors import PlanStaleError
from ..service.bench import Scenario, Shard, _abandon_service, ground_truth
from ..service.build import plans_equivalent
from ..service.server import PlanService, ServiceConfig, default_workload_resolver
from ..telemetry.events import TelemetrySink
from .canary import CANARY_FRACTION, CANARY_WINDOWS, CanarySettings
from .scenarios import (
    SCENARIO_KINDS,
    DriftSchedule,
    ensure_fresh,
    feedback_view,
    ingest_view,
    make_schedule,
    stale_sites,
)

# ``BENCH_drift.json`` layout version.
DRIFT_BENCH_SCHEMA_VERSION = 1

# The verdict each scenario must deterministically produce.
EXPECTED_VERDICT = {
    "steady": "promoted",
    "diurnal": "promoted",
    "deploy": "rolled_back",
    "jit": "promoted",
}

# Canary policy a drift run applies unless told otherwise.
DRIFT_CANARY = CanarySettings(enabled=True, window=32, threshold=0.05)
# Drift phases per episode, and the share of the fleet running the new
# deploy while feedback arrives.
PHASES = 2
DEPLOYED_FRACTION = 0.25


@dataclass
class DriftCaseResult:
    """One (app, scenario) episode."""

    app: str
    scenario: str
    input_label: str = ""
    stream_samples: int = 0
    baseline_version: int = 0
    # Staleness detection.
    stale_site_count: int = 0
    stale_typed: bool = False  # ensure_fresh raised the typed error
    detection_latency_samples: Optional[int] = None
    # Profile epoch after the deploy boundary (0: no relocation, so no
    # epoch reset was issued).
    epoch: int = 0
    # Canary verdict.
    verdict: Optional[str] = None
    expected: str = ""
    verdict_correct: Optional[bool] = None
    samples_to_verdict: Optional[int] = None
    baseline_score: Optional[float] = None
    candidate_score: Optional[float] = None
    active_version: int = 0
    history: List[Tuple[str, int]] = field(default_factory=list)
    # Kill-and-restore.
    rollback_correct: Optional[bool] = None


@dataclass
class DriftReport:
    scenario: Scenario
    canary: CanarySettings
    kinds: Tuple[str, ...]
    cases: List[DriftCaseResult] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def verdict_accuracy(self) -> Optional[float]:
        judged = [c for c in self.cases if c.verdict_correct is not None]
        if not judged:
            return None
        return sum(1 for c in judged if c.verdict_correct) / len(judged)

    @property
    def recovery_ok(self) -> Optional[bool]:
        checked = [c for c in self.cases if c.rollback_correct is not None]
        if not checked:
            return None
        return all(c.rollback_correct for c in checked)


def drift_report_to_dict(report: DriftReport) -> Dict:
    """Schema-versioned ``BENCH_drift.json`` payload."""
    return {
        "format": DRIFT_BENCH_SCHEMA_VERSION,
        "schema_version": DRIFT_BENCH_SCHEMA_VERSION,
        "kind": "drift_bench",
        "settings": {
            "apps": list(report.scenario.apps),
            "scenarios": list(report.kinds),
            "trace_instructions": report.scenario.trace_instructions,
            "phases": PHASES,
            "deployed_fraction": DEPLOYED_FRACTION,
            "canary_fraction": CANARY_FRACTION,
            "window": report.canary.window,
            "windows": CANARY_WINDOWS,
            "threshold": report.canary.threshold,
            "seed": report.scenario.seed,
        },
        "cases": [
            {
                "app": c.app,
                "scenario": c.scenario,
                "input": c.input_label,
                "stream_samples": c.stream_samples,
                "baseline_version": c.baseline_version,
                "stale_sites": c.stale_site_count,
                "stale_typed": c.stale_typed,
                "detection_latency_samples": c.detection_latency_samples,
                "epoch": c.epoch,
                "verdict": c.verdict,
                "expected": c.expected,
                "verdict_correct": c.verdict_correct,
                "samples_to_verdict": c.samples_to_verdict,
                "baseline_score": c.baseline_score,
                "candidate_score": c.candidate_score,
                "active_version": c.active_version,
                "history": [list(h) for h in c.history],
                "rollback_correct": c.rollback_correct,
            }
            for c in report.cases
        ],
        "summary": {
            "cases": len(report.cases),
            "verdict_accuracy": report.verdict_accuracy,
            "recovery_ok": report.recovery_ok,
        },
        "wall_s": report.wall_s,
    }


def _detection_latency(
    feedback, schedule: DriftSchedule
) -> Optional[int]:
    """Index of the first feedback sample running relocated code."""
    relocated_pcs = set(schedule.relocated_pcs().values())
    if not relocated_pcs:
        return None
    for i, sample in enumerate(feedback):
        if sample.miss_pc in relocated_pcs:
            return i
    return None


async def _drive_case(
    scenario: Scenario,
    settings: CanarySettings,
    shard: Shard,
    kind: str,
    state_dir: str,
    resolver,
    sim_cfg: SimConfig,
    telemetry: Optional[TelemetrySink],
) -> DriftCaseResult:
    app, label, stream = shard.app, shard.label, shard.stream
    batch_size = scenario.batch_size
    result = DriftCaseResult(
        app=app, scenario=kind, expected=EXPECTED_VERDICT[kind]
    )
    result.input_label = label
    result.stream_samples = len(stream)
    schedule = make_schedule(stream, kind, scenario.seed, phases=PHASES)
    key = (app, label)

    service_config = ServiceConfig(
        # Long debounce: only explicit get_plan requests build, so the
        # episode's publish lineage is exactly baseline-then-candidate.
        debounce_s=60.0,
        seed=scenario.seed,
        journal_path=os.path.join(state_dir, "journal.jsonl"),
        snapshot_dir=os.path.join(state_dir, "snapshots"),
        snapshot_every=1_000_000,  # snapshots ride on publishes/verdicts
    )

    def make_service() -> PlanService:
        return PlanService(
            workload_for=resolver,
            config=service_config,
            sim_config=sim_cfg,
            telemetry=telemetry,
            canary=settings,
        )

    full_ingest = ingest_view(stream, schedule)
    pre_cut = schedule.phases[0].stop
    pre = ingest_view(stream[:pre_cut], schedule)
    post = full_ingest[len(pre):]
    feedback = feedback_view(
        stream, schedule, deployed_fraction=DEPLOYED_FRACTION
    )
    # Stale = the miss runs *post-deploy* code no plan's layout knows
    # yet; old-address misses from the not-yet-deployed majority are
    # ordinary misses the plans compete on.
    relocated = set(schedule.relocated_pcs().values())

    service = make_service()
    await service.start()
    # Phase 0: publish the baseline.
    for seq, start in enumerate(range(0, len(pre), batch_size)):
        await service.ingest(
            app, label, pre[start : start + batch_size], seq=seq
        )
    baseline = await service.get_plan(app, label)
    result.baseline_version = baseline.version

    # Staleness: the ground-truth changelog vs the typed gate.
    dangling = stale_sites(baseline.plan, schedule)
    result.stale_site_count = len(dangling)
    if dangling:
        try:
            ensure_fresh(key, baseline.plan, schedule)
        except PlanStaleError as exc:
            result.stale_typed = tuple(exc.stale_sites) == tuple(dangling)
    result.detection_latency_samples = _detection_latency(feedback, schedule)

    # Drift phases: stage the candidate.  A rolling deploy changes the
    # binary's layout, so the fleet's profile pipeline starts a fresh
    # epoch at the boundary — pre-deploy samples can no longer be
    # attributed and must not fold into the candidate.
    if schedule.relocations():
        result.epoch = await service.new_epoch(app, label)
    seq0 = (len(pre) + batch_size - 1) // batch_size
    for seq, start in enumerate(range(0, len(post), batch_size)):
        await service.ingest(
            app, label, post[start : start + batch_size], seq=seq0 + seq
        )
    if post:
        served = await service.get_plan(app, label)
        # During the canary the baseline keeps serving.
        assert served.version == baseline.version

    # Live feedback until the verdict (or the stream runs dry).
    for seq, start in enumerate(range(0, len(feedback), batch_size)):
        reply = await service.feedback(
            app,
            label,
            feedback[start : start + batch_size],
            stale_pcs=relocated,
            seq=seq,
        )
        if reply["verdicts"]:
            verdict = reply["verdicts"][0]
            result.verdict = verdict["decision"]
            result.baseline_score = verdict["baseline_score"]
            result.candidate_score = verdict["candidate_score"]
            break
    state = service.canary.states.get(key)
    if state is not None:
        result.samples_to_verdict = (
            state.observed if result.verdict is not None else None
        )
        result.history = list(state.history)
    active = service.canary.active(key)
    result.active_version = active.version if active is not None else 0
    result.verdict_correct = (
        result.verdict == result.expected
        if result.verdict is not None
        else False
    )

    # Kill (no drain) and restore: lineage must survive bit-for-bit.
    await _abandon_service(service)
    revived = make_service()
    revived.restore()
    await revived.start()
    restored_state = revived.canary.states.get(key)
    restored_active = revived.canary.active(key)
    result.rollback_correct = (
        restored_active is not None
        and active is not None
        and restored_active.version == active.version
        and plans_equivalent(restored_active.plan, active.plan)
        and restored_state is not None
        and list(restored_state.history) == result.history
    )
    await revived.stop()
    return result


async def _drive(
    report: DriftReport,
    state_dir: str,
    telemetry: Optional[TelemetrySink],
) -> DriftReport:
    resolver = default_workload_resolver()
    sim_cfg = SimConfig()
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    shards = ground_truth(report.scenario, resolver, sim_cfg)
    for app, shard in shards.items():
        for kind in report.kinds:
            case_dir = os.path.join(state_dir, f"{app}-{kind}")
            os.makedirs(case_dir, exist_ok=True)
            report.cases.append(
                await _drive_case(
                    report.scenario, report.canary, shard, kind, case_dir,
                    resolver, sim_cfg, telemetry,
                )
            )
    report.wall_s = loop.time() - t0
    return report


def run_drift(
    scenario: Scenario,
    canary: CanarySettings = DRIFT_CANARY,
    kinds: Tuple[str, ...] = SCENARIO_KINDS,
    telemetry: Optional[TelemetrySink] = None,
) -> DriftReport:
    """Replay every ``(app, kind)`` episode of the sweep (own loop).

    Per-case WALs and snapshots go under a temporary directory that is
    removed afterwards.
    """
    report = DriftReport(scenario=scenario, canary=canary, kinds=tuple(kinds))
    with tempfile.TemporaryDirectory(prefix="repro-drift-bench-") as tmp:
        return asyncio.run(_drive(report, tmp, telemetry))


def format_drift_report(report: DriftReport) -> str:
    lines: List[str] = []
    out = lines.append
    out("drift-bench")
    for c in report.cases:
        latency = (
            "n/a"
            if c.detection_latency_samples is None
            else str(c.detection_latency_samples)
        )
        verdict = c.verdict or "none"
        out(
            f"  {c.app}/{c.scenario:8s} stream={c.stream_samples:<5d} "
            f"stale_sites={c.stale_site_count:<4d} detect@{latency:<5s} "
            f"verdict={verdict:<12s} (expected {c.expected}, "
            f"{'OK' if c.verdict_correct else 'MISS'}) "
            f"recovery={'OK' if c.rollback_correct else 'MISMATCH'}"
        )
    accuracy = report.verdict_accuracy
    out(
        f"verdict accuracy: "
        f"{'n/a' if accuracy is None else format(accuracy, '.1%')}"
    )
    out(f"recovery: {'OK' if report.recovery_ok else 'MISMATCH'}")
    out(f"wall: {report.wall_s:.2f}s")
    return "\n".join(lines)
