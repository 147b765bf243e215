"""``python -m repro.service``: drive the plan service end to end.

Usage::

    python -m repro.service run --apps wordpress,drupal  # parity + drain
    python -m repro.service run --overload --expect-sheds --telemetry s.jsonl
    python -m repro.service fleet --chaos --journal j.jsonl --decisions d.jsonl
    python -m repro.service drift --smoke                 # deploy must roll back
    python -m repro.service drift --out BENCH_drift.json  # full episode matrix

``run`` streams each app's profiled samples through one in-process
service, ``fleet`` through the sharded multi-process fleet, and both
check every served plan against offline ``build_plan``.  ``drift``
replays the seeded drift scenarios against the canarying service.
``--telemetry`` logs can be summarized with
``python -m repro.experiments telemetry-report``.

Exit codes: 0 clean; 1 a check failed (parity, drain, sheds, chaos,
verdicts, recovery); 2 usage or pipeline error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from ..drift import bench as drift_bench
from ..errors import BenchError, ReproError
from ..profiling.serialize import write_json_atomic
from ..telemetry.events import TelemetrySink
from . import bench
from .fleet import FleetConfig


def _scenario(args) -> bench.Scenario:
    apps = tuple(a.strip() for a in args.apps.split(",") if a.strip())
    return bench.Scenario(apps=apps, trace_instructions=args.trace_instructions)


def _run(args, sink: Optional[TelemetrySink]) -> List[str]:
    config = replace(bench.LOSSLESS, queue_depth=args.queue_depth)
    load_clients = 0
    if args.overload:
        # Tiny queue, one worker, synthetic latency, and six load
        # clients per queue slot: the service must shed, then drain.
        config = replace(
            config,
            queue_depth=min(config.queue_depth, 4),
            workers=1,
            synthetic_delay_s=0.02,
        )
        load_clients = 6 * config.queue_depth
    report = bench.run_service(
        _scenario(args), config, telemetry=sink, load_clients=load_clients
    )
    print(bench.format_service_report(report))
    failures = _stream_failures(report, "service")
    if args.expect_sheds and report.sheds == 0:
        failures.append("--expect-sheds but no request was shed")
    return failures


def _fleet(args, sink: Optional[TelemetrySink]) -> List[str]:
    config = FleetConfig(
        workers=args.workers,
        replicas=args.replicas,
        max_workers=max(args.workers, FleetConfig.max_workers),
    )
    chaos = bench.Chaos()
    if args.chaos:
        config = replace(
            config, queue_depth=min(config.queue_depth, 4), autoscale=True
        )
        chaos = bench.CHAOS
    report = bench.run_fleet(
        _scenario(args),
        config,
        chaos,
        telemetry_path=args.telemetry,
        journal_path=args.journal,
        decisions_path=args.decisions,
    )
    print(bench.format_fleet_report(report))
    failures = _stream_failures(report, "fleet")
    if chaos.kill_after is not None and not report.crashed_workers:
        failures.append("a worker kill was scheduled but no crash was recorded")
    if chaos.rebalance_after is not None and not int(
        report.router_counters.get("fleet.rebalances", 0)
    ):
        failures.append("a rebalance was scheduled but none ran")
    return failures


def _drift(args, sink: Optional[TelemetrySink]) -> List[str]:
    scenario = bench.Scenario(apps=("wordpress",))
    kinds = drift_bench.SCENARIO_KINDS
    if args.smoke:
        scenario = replace(scenario, trace_instructions=8_000)
        kinds = ("deploy", "steady")
    canary = replace(drift_bench.DRIFT_CANARY, window=args.window)
    report = drift_bench.run_drift(scenario, canary, kinds, telemetry=sink)
    print(drift_bench.format_drift_report(report))
    if args.out:
        try:
            write_json_atomic(drift_bench.drift_report_to_dict(report), args.out)
        except OSError as exc:
            raise BenchError(
                f"cannot write drift report {args.out!r}: {exc}"
            ) from exc
        print(f"report: {args.out}")
    failures = []
    if report.verdict_accuracy is not None and report.verdict_accuracy < 1.0:
        failures.append("canary verdicts diverged from expectations")
    if report.recovery_ok is False:
        failures.append(
            "restored canary lineage diverged from the live lineage"
        )
    return failures


def _stream_failures(report: bench.StreamReport, what: str) -> List[str]:
    failures = []
    if not report.parity_ok:
        failures.append("served plans diverged from the offline pipeline")
    if not report.drained_clean:
        failures.append(f"{what} did not drain cleanly")
    return failures


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Stream profiled LBR miss samples through the plan "
        "service and check what it serves.",
    )
    commands = parser.add_subparsers(
        dest="command", required=True, metavar="{run,fleet,drift}"
    )

    def command(name, handler, help, trace_default=None):
        sub = commands.add_parser(name, help=help, description=help)
        sub.set_defaults(handler=handler)
        if trace_default is not None:
            sub.add_argument("--apps", default="wordpress,drupal",
                             help="comma-separated app subset "
                             "(default: %(default)s)")
            sub.add_argument("--trace-instructions", type=int,
                             default=trace_default,
                             help="trace length per app (default: %(default)s)")
        sub.add_argument("--telemetry", metavar="PATH",
                         help="append service telemetry JSONL events to PATH")
        return sub

    run = command(
        "run", _run,
        "In-process service: online==offline plan parity and a clean drain.",
        trace_default=20_000,
    )
    run.add_argument("--queue-depth", type=int,
                     default=bench.LOSSLESS.queue_depth,
                     help="request-queue bound; arrivals beyond it are shed "
                     "(default: %(default)s)")
    run.add_argument("--overload", action="store_true",
                     help="preset: queue of at most 4, 1 worker, 20 ms "
                     "synthetic latency, 6 load clients per queue slot")
    run.add_argument("--expect-sheds", action="store_true",
                     help="exit 1 unless the run shed at least one request")

    fleet = command(
        "fleet", _fleet,
        "Sharded multi-process fleet: parity through chaos and a clean drain.",
        trace_default=12_000,
    )
    fleet.add_argument("--workers", type=int, default=FleetConfig.workers,
                       help="initial worker processes (default: %(default)s)")
    fleet.add_argument("--replicas", type=int, default=FleetConfig.replicas,
                       help="workers folding each shard (default: %(default)s)")
    fleet.add_argument("--chaos", action="store_true",
                       help="preset: router queue of at most 4 with 12 acks "
                       "in flight, autoscaler on and ticked every 6 batches, "
                       "a worker killed after 5, ring weights skewed after 9")
    fleet.add_argument("--journal", metavar="PATH",
                       help="mirror the ingest journal to a JSONL file")
    fleet.add_argument("--decisions", metavar="PATH",
                       help="append autoscaler decisions to a JSONL file")

    drift = command(
        "drift", _drift,
        "Drift scenarios against the canarying service on wordpress: "
        "verdicts and kill/restore lineage.",
    )
    drift.add_argument("--smoke", action="store_true",
                       help="preset: 8000-instruction trace, deploy and "
                       "steady only")
    drift.add_argument("--out", metavar="PATH",
                       help="write the schema-versioned report JSON here "
                       "(e.g. BENCH_drift.json)")
    drift.add_argument("--window", type=int,
                       default=drift_bench.DRIFT_CANARY.window,
                       help="canary feedback window in samples "
                       "(default: %(default)s)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    sink = None
    try:
        # The fleet's router and workers open the log themselves.
        if args.telemetry and args.command != "fleet":
            sink = TelemetrySink(args.telemetry)
        failures = args.handler(args, sink)
        if sink is not None:
            sink.emit_summary()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if sink is not None:
            sink.close()
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
