"""``drift-bench``: measure the drift engine end to end.

For each ``(app, scenario)`` pair the driver replays one full drift
episode against a durably-configured :class:`~repro.service.server.PlanService`
with canarying enabled:

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

The report is schema-versioned (``BENCH_drift.json``); every number in
it is a pure function of the seed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config import SimConfig, apps_from_env, int_from_env
from ..errors import BenchError, PlanStaleError, ReproError
from ..profiling.serialize import check_schema_version
from ..service.bench import _abandon_service, collect_sample_stream
from ..service.build import plans_equivalent
from ..service.server import PlanService, ServiceConfig, default_workload_resolver
from ..telemetry.events import TelemetrySink
from ..trace.walker import generate_trace
from ..workloads.apps import app_names
from .canary import CanarySettings
from .scenarios import (
    SCENARIO_KINDS,
    DriftSchedule,
    ensure_fresh,
    feedback_view,
    ingest_view,
    make_schedule,
    stale_sites,
)

# ``BENCH_drift.json`` layout version; see validate_drift_bench_dict.
DRIFT_BENCH_SCHEMA_VERSION = 1

# The verdict each scenario must deterministically produce.
EXPECTED_VERDICT = {
    "steady": "promoted",
    "diurnal": "promoted",
    "deploy": "rolled_back",
    "jit": "promoted",
}


@dataclass(frozen=True)
class DriftBenchConfig:
    """One drift-bench sweep."""

    apps: Tuple[str, ...] = ("wordpress",)
    scenarios: Tuple[str, ...] = SCENARIO_KINDS
    trace_instructions: int = 20_000
    batch_size: int = 64
    phases: int = 2
    deployed_fraction: float = 0.25
    # Canary policy under test.
    canary_fraction: float = 0.5
    window: int = 32
    windows: int = 2
    threshold: float = 0.05
    seed: int = 0
    check_plans: bool = True

    def __post_init__(self) -> None:
        if not self.apps:
            raise ReproError("drift bench needs at least one app")
        unknown = sorted(set(self.apps) - set(app_names()))
        if unknown:
            raise ReproError(
                f"unknown app(s) {unknown}; choose from {sorted(app_names())}"
            )
        bad = sorted(set(self.scenarios) - set(SCENARIO_KINDS))
        if bad:
            raise ReproError(
                f"unknown scenario(s) {bad}; choose from {SCENARIO_KINDS}"
            )


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
    restored_active_version: int = 0
    restored_history: List[Tuple[str, int]] = field(default_factory=list)


@dataclass
class DriftBenchReport:
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
    cfg: DriftBenchConfig,
    app: str,
    scenario: str,
    state_dir: str,
    resolver,
    sim_cfg: SimConfig,
    telemetry: Optional[TelemetrySink],
) -> DriftCaseResult:
    result = DriftCaseResult(app=app, scenario=scenario, expected=EXPECTED_VERDICT[scenario])
    workload = resolver(app)
    inp = workload.spec.make_input(0)
    trace = generate_trace(
        workload, inp, max_instructions=cfg.trace_instructions
    )
    _profile, stream = collect_sample_stream(workload, trace, sim_cfg)
    result.input_label = trace.label
    result.stream_samples = len(stream)
    schedule = make_schedule(stream, scenario, cfg.seed, phases=cfg.phases)
    key = (app, trace.label)

    settings = CanarySettings(
        enabled=True,
        fraction=cfg.canary_fraction,
        window=cfg.window,
        windows=cfg.windows,
        threshold=cfg.threshold,
        seed=cfg.seed,
    )
    service_config = ServiceConfig(
        # Long debounce: only explicit get_plan requests build, so the
        # episode's publish lineage is exactly baseline-then-candidate.
        debounce_s=60.0,
        seed=cfg.seed,
        journal_path=os.path.join(state_dir, "journal.jsonl"),
        snapshot_dir=os.path.join(state_dir, "snapshots"),
        snapshot_every=1_000_000,  # snapshots ride on publishes/verdicts
    )

    def make_service() -> PlanService:
        return PlanService(
            workload_for=resolver,
            config=service_config,
            sim_config=sim_cfg,
            check_plans=cfg.check_plans,
            telemetry=telemetry,
            canary=settings,
        )

    full_ingest = ingest_view(stream, schedule)
    pre_cut = schedule.phases[0].stop
    pre = ingest_view(stream[:pre_cut], schedule)
    post = full_ingest[len(pre):]
    feedback = feedback_view(
        stream, schedule, deployed_fraction=cfg.deployed_fraction
    )
    # Stale = the miss runs *post-deploy* code no plan's layout knows
    # yet; old-address misses from the not-yet-deployed majority are
    # ordinary misses the plans compete on.
    relocated = set(schedule.relocated_pcs().values())

    service = make_service()
    await service.start()
    # Phase 0: publish the baseline.
    for seq, start in enumerate(range(0, len(pre), cfg.batch_size)):
        await service.ingest(
            app, trace.label, pre[start : start + cfg.batch_size], seq=seq
        )
    baseline = await service.get_plan(app, trace.label)
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
        result.epoch = await service.new_epoch(app, trace.label)
    seq0 = (len(pre) + cfg.batch_size - 1) // cfg.batch_size
    for seq, start in enumerate(range(0, len(post), cfg.batch_size)):
        await service.ingest(
            app, trace.label, post[start : start + cfg.batch_size],
            seq=seq0 + seq,
        )
    if post:
        served = await service.get_plan(app, trace.label)
        # During the canary the baseline keeps serving.
        assert served.version == baseline.version

    # Live feedback until the verdict (or the stream runs dry).
    for seq, start in enumerate(range(0, len(feedback), cfg.batch_size)):
        reply = await service.feedback(
            app,
            trace.label,
            feedback[start : start + cfg.batch_size],
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
    result.restored_active_version = (
        restored_active.version if restored_active is not None else 0
    )
    result.restored_history = (
        list(restored_state.history) if restored_state is not None else []
    )
    result.rollback_correct = (
        restored_active is not None
        and active is not None
        and restored_active.version == active.version
        and plans_equivalent(restored_active.plan, active.plan)
        and result.restored_history == result.history
    )
    await revived.stop()
    return result


async def _drive_bench(
    cfg: DriftBenchConfig,
    state_dir: str,
    telemetry: Optional[TelemetrySink],
) -> DriftBenchReport:
    resolver = default_workload_resolver()
    sim_cfg = SimConfig()
    report = DriftBenchReport()
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    for app in cfg.apps:
        for scenario in cfg.scenarios:
            case_dir = os.path.join(state_dir, f"{app}-{scenario}")
            os.makedirs(case_dir, exist_ok=True)
            report.cases.append(
                await _drive_case(
                    cfg, app, scenario, case_dir, resolver, sim_cfg, telemetry
                )
            )
    report.wall_s = loop.time() - t0
    return report


def run_drift(
    cfg: DriftBenchConfig,
    state_dir: Optional[str] = None,
    telemetry: Optional[TelemetrySink] = None,
) -> DriftBenchReport:
    """Run the drift sweep to completion (creates its own loop)."""
    if state_dir is not None:
        return asyncio.run(_drive_bench(cfg, state_dir, telemetry))
    with tempfile.TemporaryDirectory(prefix="repro-drift-bench-") as tmp:
        return asyncio.run(_drive_bench(cfg, tmp, telemetry))


def drift_report_to_dict(
    report: DriftBenchReport, cfg: DriftBenchConfig
) -> Dict:
    """Schema-versioned ``BENCH_drift.json`` payload."""
    return {
        "format": DRIFT_BENCH_SCHEMA_VERSION,
        "schema_version": DRIFT_BENCH_SCHEMA_VERSION,
        "kind": "drift_bench",
        "settings": {
            "apps": list(cfg.apps),
            "scenarios": list(cfg.scenarios),
            "trace_instructions": cfg.trace_instructions,
            "phases": cfg.phases,
            "deployed_fraction": cfg.deployed_fraction,
            "canary_fraction": cfg.canary_fraction,
            "window": cfg.window,
            "windows": cfg.windows,
            "threshold": cfg.threshold,
            "seed": cfg.seed,
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


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise BenchError(message)


def validate_drift_bench_dict(data: dict) -> None:
    """Validate a loaded ``BENCH_drift.json``; raise :class:`BenchError`.

    Layout (version 1)::

        {
          "schema_version": 1,
          "kind": "drift_bench",
          "settings": {"apps", "scenarios", "trace_instructions",
                       "phases", "deployed_fraction", "canary_fraction",
                       "window", "windows", "threshold", "seed"},
          "cases": [
            {"app", "scenario", "input", "stream_samples",
             "baseline_version", "stale_sites", "stale_typed",
             "detection_latency_samples", "epoch", "verdict", "expected",
             "verdict_correct", "samples_to_verdict", "baseline_score",
             "candidate_score", "active_version", "history",
             "rollback_correct"}, ...
          ],
          "summary": {"cases", "verdict_accuracy", "recovery_ok"},
          "wall_s": float
        }

    ``detection_latency_samples`` is ``null`` for scenarios without a
    relocation; ``verdict``/``samples_to_verdict`` are ``null`` when
    the feedback stream ran dry before both canary arms closed enough
    windows.
    """
    _require(isinstance(data, dict), "drift bench report must be a JSON object")
    if data.get("kind") != "drift_bench":
        raise BenchError(
            f"not a drift bench report (kind={data.get('kind')!r}, "
            "expected 'drift_bench')"
        )
    check_schema_version(
        data,
        "drift bench report",
        BenchError,
        expected=DRIFT_BENCH_SCHEMA_VERSION,
    )

    settings = data.get("settings")
    _require(
        isinstance(settings, dict), "drift bench report carries no settings"
    )
    for key in ("apps", "scenarios"):
        _require(
            isinstance(settings.get(key), list) and settings[key],
            f"settings.{key} must be a non-empty list",
        )
    for key in ("trace_instructions", "phases", "window", "windows"):
        _require(
            isinstance(settings.get(key), int) and settings[key] > 0,
            f"settings.{key} must be a positive integer",
        )
    for key in ("deployed_fraction", "canary_fraction", "threshold"):
        value = settings.get(key)
        _require(
            isinstance(value, (int, float)) and 0.0 <= value <= 1.0,
            f"settings.{key} must be a number in [0, 1]",
        )

    cases = data.get("cases")
    _require(
        isinstance(cases, list) and cases,
        "drift bench report carries no cases",
    )
    for i, case in enumerate(cases):
        _require(isinstance(case, dict), f"cases[{i}] is not an object")
        for key in ("app", "scenario", "expected"):
            _require(
                isinstance(case.get(key), str) and case[key],
                f"cases[{i}].{key} must be a non-empty string",
            )
        for key in ("stream_samples", "baseline_version", "stale_sites",
                    "epoch", "active_version"):
            _require(
                isinstance(case.get(key), int) and case[key] >= 0,
                f"cases[{i}].{key} must be a non-negative integer",
            )
        for key in ("stale_typed", "verdict_correct", "rollback_correct"):
            _require(
                isinstance(case.get(key), bool),
                f"cases[{i}].{key} must be a boolean",
            )
        latency = case.get("detection_latency_samples")
        _require(
            latency is None or (isinstance(latency, int) and latency >= 0),
            f"cases[{i}].detection_latency_samples must be null or a "
            "non-negative integer",
        )
        verdict = case.get("verdict")
        _require(
            verdict is None or verdict in ("promoted", "rolled_back"),
            f"cases[{i}].verdict must be null, 'promoted', or 'rolled_back'",
        )
        history = case.get("history")
        _require(
            isinstance(history, list),
            f"cases[{i}].history must be a list",
        )

    summary = data.get("summary")
    _require(isinstance(summary, dict), "drift bench report carries no summary")
    _require(
        isinstance(summary.get("cases"), int) and summary["cases"] == len(cases),
        "summary.cases must match the number of case records",
    )
    accuracy = summary.get("verdict_accuracy")
    _require(
        accuracy is None
        or (isinstance(accuracy, (int, float)) and 0.0 <= accuracy <= 1.0),
        "summary.verdict_accuracy must be null or a number in [0, 1]",
    )
    _require(
        summary.get("recovery_ok") is None
        or isinstance(summary["recovery_ok"], bool),
        "summary.recovery_ok must be null or a boolean",
    )

    wall = data.get("wall_s")
    _require(
        isinstance(wall, (int, float)) and wall >= 0.0,
        "wall_s must be a non-negative number",
    )


def save_drift_report(data: Dict, path: str) -> None:
    """Validate and atomically write a ``BENCH_drift.json`` payload."""
    validate_drift_bench_dict(data)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def format_drift_report(report: DriftBenchReport) -> str:
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


def drift_bench_main(argv=None) -> int:
    """``drift-bench``: the dynamic-workload drift + canary sweep."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments drift-bench",
        description="Replay seeded drift scenarios (diurnal / deploy / JIT) "
        "against the canarying plan service and report staleness-detection "
        "latency, canary verdict accuracy, and rollback correctness as a "
        "schema-versioned BENCH_drift.json.",
    )
    parser.add_argument(
        "--apps",
        default=None,
        help="comma-separated app subset (default: $REPRO_APPS or wordpress)",
    )
    parser.add_argument(
        "--scenarios",
        default=None,
        help=f"comma-separated scenario subset (default: {','.join(SCENARIO_KINDS)})",
    )
    parser.add_argument(
        "--trace-instructions",
        type=int,
        default=None,
        help="trace length per app (default: $REPRO_TRACE_INSTRUCTIONS or 20000)",
    )
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--phases", type=int, default=2)
    parser.add_argument("--deployed-fraction", type=float, default=0.25)
    parser.add_argument("--canary-fraction", type=float, default=0.5)
    parser.add_argument("--window", type=int, default=32)
    parser.add_argument("--windows", type=int, default=2)
    parser.add_argument("--threshold", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="preset: one app, short trace, deploy+steady only — for CI",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the schema-versioned report JSON here "
        "(e.g. BENCH_drift.json)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="directory for per-case WALs and snapshots (default: temp)",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="append service telemetry JSONL events to PATH",
    )
    parser.add_argument(
        "--no-check-plans",
        action="store_true",
        help="skip the staticcheck publish gate",
    )
    args = parser.parse_args(argv)

    if args.apps:
        apps = tuple(a.strip() for a in args.apps.split(",") if a.strip())
    else:
        env = apps_from_env()
        apps = env if env is not None else ("wordpress",)
    scenarios = (
        tuple(s.strip() for s in args.scenarios.split(",") if s.strip())
        if args.scenarios
        else SCENARIO_KINDS
    )
    trace_instructions = (
        args.trace_instructions
        if args.trace_instructions is not None
        else int_from_env("REPRO_TRACE_INSTRUCTIONS", 20_000)
    )
    if args.smoke:
        apps = apps[:1]
        scenarios = tuple(
            s for s in ("deploy", "steady") if s in scenarios
        ) or scenarios[:1]
        trace_instructions = min(trace_instructions, 8_000)

    sink = None
    try:
        cfg = DriftBenchConfig(
            apps=apps,
            scenarios=scenarios,
            trace_instructions=trace_instructions,
            batch_size=args.batch_size,
            phases=args.phases,
            deployed_fraction=args.deployed_fraction,
            canary_fraction=args.canary_fraction,
            window=args.window,
            windows=args.windows,
            threshold=args.threshold,
            seed=args.seed,
            check_plans=not args.no_check_plans,
        )
        sink = TelemetrySink(args.telemetry) if args.telemetry else None
        report = run_drift(cfg, state_dir=args.state_dir, telemetry=sink)
        data = drift_report_to_dict(report, cfg)
        if args.out:
            save_drift_report(data, args.out)
        if sink is not None:
            sink.emit_summary()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if sink is not None:
            sink.close()
    print(format_drift_report(report))
    if args.out:
        print(f"report: {args.out}")
    if report.verdict_accuracy is not None and report.verdict_accuracy < 1.0:
        print("error: canary verdicts diverged from expectations",
              file=sys.stderr)
        return 1
    if report.recovery_ok is False:
        print(
            "error: restored canary lineage diverged from the live lineage",
            file=sys.stderr,
        )
        return 1
    return 0
