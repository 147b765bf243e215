"""Benchmark (beyond the paper): the continuous-profiling plan service.

Twig is an offline, profile-guided pipeline; this benchmark times its
online deployment shape — streaming LBR ingestion, incremental
verified plan builds, and the asyncio serving layer — under two fleet
scenarios:

* **steady**: every shard streams in order at default (lossless)
  settings; the served plans must equal the offline pipeline's
  site-for-site, so the timing covers the full ingest→build→verify
  path with parity asserted;
* **overload**: a tiny queue, one worker, synthetic request latency,
  and a pack of best-effort clients; the timing covers the shedding /
  deadline / drain discipline, and the run must shed without ever
  growing the queue past its bound or failing to drain.
"""

from dataclasses import replace

from repro.experiments.report import save_result
from repro.service.bench import (
    LOSSLESS,
    Scenario,
    format_service_report,
    run_service,
)


def _report_rows(report):
    return {
        app: {
            "stream_samples": float(r.stream_samples),
            "served_sites": float(r.served_sites),
            "parity": float(bool(r.parity)),
        }
        for app, r in sorted(report.apps.items())
    }


def test_service_steady(benchmark):
    scenario = Scenario(apps=("wordpress", "drupal"), trace_instructions=20_000)
    config = replace(LOSSLESS, debounce_s=30.0)
    report = benchmark.pedantic(
        lambda: run_service(scenario, config),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    print()
    print(format_service_report(report))
    assert report.parity_ok is True
    assert report.drained_clean
    save_result(
        "service_steady",
        {"per_app": _report_rows(report), "wall_s": report.wall_s},
    )


def test_service_overload(benchmark):
    scenario = Scenario(apps=("wordpress",), trace_instructions=20_000)
    config = replace(
        LOSSLESS,
        queue_depth=4,
        workers=1,
        debounce_s=30.0,
        synthetic_delay_s=0.02,
    )
    report = benchmark.pedantic(
        lambda: run_service(
            scenario, config,
            load_clients=24, load_deadline_ms=100,
        ),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    print()
    print(format_service_report(report))
    assert report.parity_ok is True
    assert report.sheds > 0, "over-capacity load must shed"
    assert report.max_queue_depth <= config.queue_depth
    assert report.drained_clean
    save_result(
        "service_overload",
        {
            "per_app": _report_rows(report),
            "sheds": float(report.sheds),
            "deadline_expired": float(report.deadline_expired),
            "max_queue_depth": float(report.max_queue_depth),
            "wall_s": report.wall_s,
        },
    )
